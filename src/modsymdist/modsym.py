"""Modular symbols <gamma, f> = -2 pi i Int_{z0}^{gamma z0} f(z) dz.

With z0 at the cusp infinity and H(z) = sum_{n>=1} (a_n / n) e^{2 pi i n z}
(so H = 2 pi i Int_{i inf}^{z} f), splitting the path at z* = (a+i)/c and
unfolding the lower half by gamma^{-1} (which sends z* to (-d+i)/c, both at
height 1/c) gives the closed form

    <gamma, f> = H((-d+i)/c) - H((a+i)/c),          c > 0,

and 0 for c = 0.  Only (c, d mod c) enters, since a = d^{-1} (mod c) and H
has period 1.  That periodicity is what the batch evaluator exploits: per c
it folds the weighted coefficients into residue classes mod c and reads all
phi(c) distinct values off one length-c DFT.

Truncation after n_used terms is certified by the geometric tail bound
tail_constant * sum_{n > n_used} e^{-2 pi n y} < tol (one factor per
evaluation point, both at height 1/c, hence the factor 2 below).
"""

import math
import cmath
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cosets import Coset, coset_arrays

_POWER_CHUNK = 1 << 20  # bounds the cumprod scratch arrays (~16 MB complex)


@dataclass(frozen=True)
class SymbolSample:
    """A coset with its symbol value and real/imaginary decomposition.

    value = alpha + i*beta with alpha = <gamma, Re(f dz)> and
    beta = <gamma, Im(f dz)> both purely imaginary; err_bound is the
    certified absolute truncation error of value.
    """

    coset: Coset
    value: complex
    alpha: complex
    beta: complex
    err_bound: float


def decompose(value):
    """Split <gamma,f> into (<gamma,alpha>, <gamma,beta>), both in i*R.

    value = -2 pi i (P + iQ) with P, Q the real path integrals of the two
    real differentials, so alpha = -2 pi i P = i*Im(value) and
    beta = -2 pi i Q = -i*Re(value); then value = alpha + i*beta exactly.
    """
    value = complex(value)
    return 1j * value.imag, -1j * value.real


def tail_terms_needed(y, tail_constant, tol, two_sided=True):
    """Minimal n with tail_constant * sum_{m>n} e^{-2 pi m y} < tol.

    two_sided doubles the bound, one factor per evaluation point of the
    pairing's closed form (both points sit at height y = 1/c).
    """
    r = math.exp(-2 * math.pi * y)
    fac = (2 if two_sided else 1) * tail_constant
    return max(1, int(math.ceil(math.log(fac / (tol * (1 - r))) / (2 * math.pi * y))))


def antiderivative(table, z, tol=1e-12):
    """H(z) = sum_{n <= n_used} (a_n / n) e^{2 pi i n z}, truncation error < tol.

    Powers of q = e^{2 pi i z} are built by repeated multiplication, one
    complex multiply per term.  Raises if the table is too short for the
    requested tolerance at this height.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    n_used = tail_terms_needed(z.imag, table.tail_constant, tol, two_sided=False)
    if n_used > table.n_max:
        raise ValueError(
            f"table too short: need n_max >= {n_used} for tol={tol} at Im z = {z.imag}"
        )
    q = cmath.exp(2j * math.pi * z)
    return _phase_series(table.a, n_used, q)


def _powers(w, start_pow, k):
    ph = np.empty(k, dtype=np.complex128)
    np.multiply.accumulate(np.broadcast_to(np.complex128(w), (k,)), out=ph)
    ph *= start_pow / w
    return ph


def _phase_series(a, n_used, w):
    """sum_{n=1}^{n_used} (a_n / n) w^n via chunked cumulative products."""
    total = 0.0 + 0.0j
    start_pow = w
    for s in range(1, n_used + 1, _POWER_CHUNK):
        e = min(n_used, s + _POWER_CHUNK - 1)
        ph = _powers(w, start_pow, e - s + 1)
        n = np.arange(s, e + 1)
        total += complex(np.sum((a[s : e + 1] / n) * ph))
        start_pow = complex(ph[-1]) * w
    return total


def _pair_series(a, n_used, w1, w2):
    """sum (a_n / n) (w1^n - w2^n): one weights pass shared by both points."""
    total = 0.0 + 0.0j
    p1, p2 = w1, w2
    for s in range(1, n_used + 1, _POWER_CHUNK):
        e = min(n_used, s + _POWER_CHUNK - 1)
        k = e - s + 1
        ph1 = _powers(w1, p1, k)
        ph2 = _powers(w2, p2, k)
        p1 = complex(ph1[-1]) * w1
        p2 = complex(ph2[-1]) * w2
        ph1 -= ph2
        ph1 *= a[s : e + 1] / np.arange(s, e + 1)
        total += complex(np.sum(ph1))
    return total


def _canonical_row(m):
    """Reduce a GammaMatrix to canonical (a, c, d) with c >= 0."""
    a, c, d = m.a, m.c, m.d
    if c < 0 or (c == 0 and d < 0):
        a, c, d = -a, -c, -d
    return a, c, d


def pairing(table, m, tol=1e-10):
    """SymbolSample for <gamma, f> with certified truncation error <= tol.

    Exact 0 for c = 0; otherwise the two-point closed form at height 1/c.
    The value depends only on the coset Gamma_infty * (+-gamma): the top row
    enters through a mod c alone.  The coset's bookkeeping norm is c^2 + d^2
    (the z = i norm).
    """
    a_top, c, d = _canonical_row(m)
    if c == 0:
        sample_coset = Coset(0, 1, 1.0)
        return SymbolSample(sample_coset, 0j, 0j, 0j, 0.0)
    n_used = tail_terms_needed(1.0 / c, table.tail_constant, tol)
    if n_used > table.n_max:
        raise ValueError(
            f"tol {tol} unreachable for c={c}: need n_max >= {n_used}, "
            f"table has {table.n_max}"
        )
    decay = math.exp(-2 * math.pi / c)
    w1 = cmath.exp(2j * math.pi * ((-d) % c) / c) * decay
    w2 = cmath.exp(2j * math.pi * (a_top % c) / c) * decay
    value = _pair_series(table.a, n_used, w1, w2)
    r = decay
    err = 2 * table.tail_constant * r ** (n_used + 1) / (1 - r)
    alpha, beta = decompose(value)
    sample_coset = Coset(c, d, float(c * c + d * d))
    return SymbolSample(sample_coset, value, alpha, beta, err)


# ---------------------------------------------------------------------------
# Independent oracle: adaptive quadrature of the raw q-series
# ---------------------------------------------------------------------------

_GAUSS_START = 16  # first Gauss-Legendre rule on each segment
_GAUSS_MAX = 1024  # the last rule tried before giving up


@functools.lru_cache(maxsize=None)
def _gauss_legendre(k):
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(k)


def _f_terms(table, y, tol):
    """Terms of the raw q-series for f that keep its tail below tol at Im z >= y."""
    # |f| tail: C * sum n e^{-2 pi n y}; crude geometric majorant with margin
    r = math.exp(-2 * math.pi * y)
    n_used = max(8, int(math.ceil(math.log(10 * table.tail_constant / (tol * (1 - r) ** 2)) / (2 * math.pi * y))))
    if n_used > table.n_max:
        raise ValueError(f"table too short for quadrature at height {y}: need {n_used}")
    return n_used


def _f_values(twisted, ys):
    """f(x + i y) at the heights ys of one ray from its twisted coefficients.

    twisted[n-1] = (Re, Im) of a_n e^{2 pi i n x}; along the ray only the
    real factor e^{-2 pi n y} changes.
    """
    n = np.arange(1, len(twisted) + 1)
    fv = np.exp(-2 * math.pi * np.outer(ys, n)) @ twisted
    return fv[:, 0] + 1j * fv[:, 1]


def _gauss_segment(twisted, y, y2, k):
    """k-point Gauss-Legendre value of Int_y^y2 f(x + i t) dt."""
    t, w = _gauss_legendre(k)
    half = (y2 - y) / 2
    return half * complex(w @ _f_values(twisted, (y + y2) / 2 + half * t))


def _vertical_integral(table, x, y0, tol):
    """Int f dz along the ray x + i[y0, inf): Gauss-Legendre on dyadic segments.

    f is the raw q-series sum a_n e^{2 pi i n z}, twisted by e^{2 pi i n x}
    once for the ray.  On each segment [y, 2y] the rule doubles from 16
    nodes until two successive rules agree within tol/16 (spectral
    convergence for this analytic integrand); ArithmeticError if they never
    do.  Above Y = 4 the analytic tail
    |Int| <= C/(2 pi) e^{-2 pi Y}/(1 - e^{-2 pi Y}) is ~1e-12 and is dropped.
    """
    Y_TOP = 4.0
    y = float(y0)
    n_ray = _f_terms(table, y, tol)
    n = np.arange(1, n_ray + 1)
    tw = table.a[1 : n_ray + 1] * np.exp(2j * math.pi * x * n)
    twisted = np.column_stack([tw.real, tw.imag])
    total = 0j
    while y < Y_TOP:
        y2 = min(2 * y, Y_TOP)
        seg = twisted[: _f_terms(table, y, tol)]
        k = _GAUSS_START
        prev = _gauss_segment(seg, y, y2, k)
        while True:
            if k >= _GAUSS_MAX:
                raise ArithmeticError("quadrature failed to converge")
            k *= 2
            cur = _gauss_segment(seg, y, y2, k)
            if abs(cur - prev) < tol / 16:
                break
            prev = cur
        total += 1j * cur
        y = y2
    return total


def oracle_pairing(table, m, split_height=1.0, tol=1e-9):
    """<gamma, f> by direct quadrature of f, splitting at z*_h = (a + i h)/c.

    Independent of the term-by-term antiderivative: both pieces integrate the
    raw q-series for f along vertical segments, from z*_h and from
    gamma^{-1} z*_h = (-d + i/h)/c up to the cusp.  Any h > 0 must give the
    same value; agreement across h and with pairing() is the point.
    """
    h = float(split_height)
    if h <= 0:
        raise ValueError("split height must be positive")
    a_top, c, d = _canonical_row(m)
    if c == 0:
        return 0j
    I_up = _vertical_integral(table, a_top / c, h / c, tol)  # from z* upward
    I_dn = _vertical_integral(table, (-d) / c, 1.0 / (h * c), tol)  # from g^-1 z* upward
    # -2 pi i ( Int_{i inf}^{z*} + Int_{g^-1 z*}^{i inf} ) = -2 pi i (-I_up + I_dn)
    return -2j * math.pi * (I_dn - I_up)


# ---------------------------------------------------------------------------
# Batch evaluation over all cosets up to a norm bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolBatch:
    """All non-identity cosets with N_z(gamma) <= T and their symbol values.

    Arrays are ordered by c then d (deterministic under any thread count);
    the identity coset (value 0, norm 1) is excluded but counted in `count`.
    err_bounds are per-c truncation bounds.
    """

    N: int
    T: float
    z: complex
    tol: float
    cs: np.ndarray
    ds: np.ndarray
    norms: np.ndarray
    values: np.ndarray
    err_bounds: np.ndarray

    @property
    def count(self):
        """Enumeration count at T including the identity coset."""
        return len(self.cs) + 1

    def restricted(self, T):
        """View of the batch restricted to norms <= T (identity still implied)."""
        if T > self.T:
            raise ValueError(f"batch only covers norms <= {self.T}")
        m = self.norms <= T
        return SymbolBatch(
            self.N, float(T), self.z, self.tol,
            self.cs[m], self.ds[m], self.norms[m], self.values[m], self.err_bounds[m],
        )


def _symbols_for_c(table, c, ds, norms, tol):
    """Symbol values for one c: residue folding + one DFT + inverse lookups."""
    n_used = tail_terms_needed(1.0 / c, table.tail_constant, tol)
    if n_used > table.n_max:
        raise ValueError(
            f"tol {tol} unreachable for c={c}: need n_max >= {n_used}, table has {table.n_max}"
        )
    n = np.arange(1, n_used + 1)
    w = (table.a[1 : n_used + 1] / n) * np.exp(-2 * math.pi * n / c)
    folded = np.zeros(c, dtype=np.float64)
    np.add.at(folded, n % c, w)
    hvals = np.fft.ifft(folded) * c  # hvals[k] = H((k+i)/c)
    inv = np.zeros(c, dtype=np.int64)
    for res in range(1, c):
        if math.gcd(res, c) == 1:
            inv[res] = pow(res, -1, c)
    dm = ds % c
    values = hvals[(-ds) % c] - hvals[inv[dm]]
    r = math.exp(-2 * math.pi / c)
    err = 2 * table.tail_constant * r ** (n_used + 1) / (1 - r)
    return values, np.full(len(ds), err)


def symbols_up_to(table, N, T, z=1j, tol=1e-10, threads=1):
    """SymbolBatch of every coset with N_z(gamma) <= T (identity excluded).

    Work is partitioned by c; per-c results are merged in ascending c no
    matter the thread count, so output is bit-identical for any `threads`.
    """
    groups = list(coset_arrays(N, T, z))
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda g: _symbols_for_c(table, g[0], g[1], g[2], tol), groups)
            )
    else:
        results = [_symbols_for_c(table, c, ds, norms, tol) for c, ds, norms in groups]
    if groups:
        cs = np.concatenate([np.full(len(ds), c, dtype=np.int64) for c, ds, _ in groups])
        ds = np.concatenate([g[1] for g in groups])
        norms = np.concatenate([g[2] for g in groups]).astype(np.float64)
        values = np.concatenate([r[0] for r in results])
        errs = np.concatenate([r[1] for r in results])
    else:
        cs = np.zeros(0, dtype=np.int64)
        ds = np.zeros(0, dtype=np.int64)
        norms = np.zeros(0, dtype=np.float64)
        values = np.zeros(0, dtype=np.complex128)
        errs = np.zeros(0, dtype=np.float64)
    return SymbolBatch(int(N), float(T), complex(z), float(tol), cs, ds, norms, values, errs)


def samples_from_batch(batch):
    """Materialize SymbolSample objects (identity first) from a batch."""
    out = [SymbolSample(Coset(0, 1, 1.0), 0j, 0j, 0j, 0.0)]
    for c, d, nrm, v, e in zip(
        batch.cs.tolist(), batch.ds.tolist(), batch.norms.tolist(),
        batch.values.tolist(), batch.err_bounds.tolist(),
    ):
        alpha, beta = decompose(v)
        out.append(SymbolSample(Coset(c, d, nrm), v, alpha, beta, e))
    return out
