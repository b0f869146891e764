"""Modular symbols <gamma, f> = -2 pi i Int_{z0}^{gamma z0} f(z) dz.

With z0 at the cusp infinity and H(z) = sum_{n>=1} (a_n / n) e^{2 pi i n z}
(so H = 2 pi i Int_{i inf}^{z} f), splitting the path at z* = (a+i)/c and
unfolding the lower half by gamma^{-1} (which sends z* to (-d+i)/c, both at
height 1/c) gives the closed form

    <gamma, f> = H((-d+i)/c) - H((a+i)/c),          c > 0,

and 0 for c = 0.  Only (c, d mod c) enters, since a = d^{-1} (mod c) and H
has period 1.  Both evaluators exploit that periodicity through one kernel,
_fold, which folds the weighted coefficients into residue classes mod c in
O(c) memory.  The batch evaluator reads all phi(c) distinct values per c
off one length-c DFT of the fold; a single pairing reads its two residues
off the fold with baby-step/giant-step phases, O(c) work per symbol.

Truncation after n_used terms is certified by the geometric tail bound
tail_constant * sum_{n > n_used} e^{-2 pi n y} < tol (one factor per
evaluation point, both at height 1/c, hence the factor 2 below).

All symbols up to a norm bound come from one per-c producer,
_symbol_groups, in ascending c.  symbols_up_to writes each c into its
slice of a SymbolBatch; symbol_stream gives a SymbolStream, which forms
the same symbols again on every read and holds none of them.  Both are
symbol sources: the reductions in series and stats read either one in
blocks of exactly _SUM_CHUNK positions, with the same bits.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cosets import _denominators, _group_sizes, _prime_factors, _unit_mask, coset_arrays
from .series import _SUM_CHUNK


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

    One direct sum over the n_used terms.  Raises if the table is too short
    for the requested tolerance at this height.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    n_used = tail_terms_needed(z.imag, table.tail_constant, tol, two_sided=False)
    if n_used > table.n_max:
        raise ValueError(
            f"table too short: need n_max >= {n_used} for tol={tol} at Im z = {z.imag}"
        )
    n = np.arange(1, n_used + 1)
    return complex(np.sum(table.a[1 : n_used + 1] / n * np.exp(2j * math.pi * z * n)))


def _canonical_row(m):
    """Reduce a GammaMatrix to canonical (a, c, d) with c >= 0."""
    a, c, d = m.a, m.c, m.d
    if c < 0 or (c == 0 and d < 0):
        a, c, d = -a, -c, -d
    return a, c, d


def _terms_for_c(table, c, tol):
    """(n_used, err) of a symbol at denominator c: both points sit at height 1/c."""
    n_used = tail_terms_needed(1.0 / c, table.tail_constant, tol)
    if n_used > table.n_max:
        raise ValueError(
            f"tol {tol} unreachable for c={c}: need n_max >= {n_used}, "
            f"table has {table.n_max}"
        )
    r = math.exp(-2 * math.pi / c)
    return n_used, 2 * table.tail_constant * r ** (n_used + 1) / (1 - r)


def _fold(a, c, n_used, size=None):
    """folded[k] = sum_{n = k (mod c), 1 <= n <= n_used} (a_n / n) e^{-2 pi n / c}.

    Returned in an array of `size` (default c) entries, zero from k = c on.
    Row j of the index range holds n = j c + k, whose weight is
    e^{-2 pi j} r^k with r = e^{-2 pi / c}.  The residues are taken in
    blocks of at most _SUM_CHUNK, the symbol pipeline's block size, and a
    block's full rows in groups of at most _SUM_CHUNK entries; the last
    row, cut at n_used, is a group of its own (a c of the batch is one
    block of at most two groups).  Each group is one 2D array of a_n / n,
    read through a strided view of a (ndarray checks that it lies inside
    a) and scaled row by row by e^{-2 pi j}; its rows are then added to the
    sums in ascending j.  The n = 0 entry is zeroed, which leaves its sum
    unchanged: the sums start at +0.0 and so never hold -0.0.  The common
    factor r^k is applied once at the end.  Each entry sees the same
    operations in the same order whatever the block, and the scratch
    memory is O(_SUM_CHUNK) however large c or long the series.
    """
    acc = np.zeros(c if size is None else size)
    rows = n_used // c + 1  # all rows but the last are full
    width = min(c, _SUM_CHUNK)  # residues per block
    height = max(1, min(rows, _SUM_CHUNK // width))  # rows per group
    weights = np.array([math.exp(-2 * math.pi * j) for j in range(rows)])
    step = a.strides[0]
    buf = np.empty(height * width)
    for k0 in range(0, c, width):
        k1 = min(c, k0 + width)
        k = np.arange(k0, k1, dtype=np.float64)
        full = max(0, min(rows, (n_used - k1 + 1) // c + 1))  # rows with every n <= n_used
        groups = [(j0, min(full, j0 + height), k1 - k0) for j0 in range(0, full, height)]
        if full < rows:  # the last row, up to n_used
            groups.append((full, rows, min(k1, n_used - full * c + 1) - k0))
        for j0, j1, w in groups:
            if w <= 0:
                continue
            terms = buf[: (j1 - j0) * w].reshape(j1 - j0, w)
            np.add.outer(np.arange(j0 * c, j1 * c, c, dtype=np.float64), k[:w], out=terms)  # n
            if j0 == 0 and k0 == 0:
                terms[0, 0] = 1.0  # n = 0 is not a term: its entry is zeroed below
            view = np.ndarray((j1 - j0, w), a.dtype, a, (j0 * c + k0) * step, (c * step, step))
            np.divide(view, terms, out=terms)
            if j0 == 0 and k0 == 0:
                terms[0, 0] = 0.0
            terms *= weights[j0:j1, None]
            for row in terms:
                acc[k0 : k0 + w] += row
        np.multiply(k, -2 * math.pi / c, out=k)
        acc[k0:k1] *= np.exp(k, out=k)
    return acc


def _twisted_sums(grid, c, us):
    """sum_k folded[k] e^{2 pi i u k / c} for each residue u in us.

    grid is the fold at c in Q rows of B = ceil(sqrt c), zero past its c
    entries.  With k = q B + s, the phase of u k is the product of a
    giant-step factor at (u B q) mod c and a baby-step factor at (u s)
    mod c.  Both angles are exact integers mod c, so the rounding of each
    phase is a few ulp whatever k, and only O(sqrt c) exponentials are
    taken per residue; the O(c) work is plain multiply-adds in einsum.
    """
    Q, B = grid.shape
    u = np.asarray(us, dtype=np.int64)[:, None]
    baby = (2 * math.pi / c) * ((u * np.arange(B)) % c)
    giant = (2 * math.pi / c) * ((u * B % c) * np.arange(Q) % c)
    # real row sums against cos and sin of every baby angle, all residues at once
    trig = np.concatenate([np.cos(baby), np.sin(baby)])
    rows = np.einsum("qs,ks->kq", grid, trig)
    return np.einsum("uq,uq->u", np.exp(1j * giant), rows[: len(us)] + 1j * rows[len(us) :])


def pairing(table, m, tol=1e-10):
    """(<gamma, f>, err) with certified truncation error err <= tol.

    Exactly (0j, 0.0) for c = 0; otherwise the two-point closed form at
    height 1/c, read off the residue fold at u1 = -d and u2 = a (mod c) in
    O(c) work.  The value depends only on the coset Gamma_infty * (+-gamma):
    the top row enters through a mod c alone.
    """
    a_top, c, d = _canonical_row(m)
    if c == 0:
        return 0j, 0.0
    n_used, err = _terms_for_c(table, c, tol)
    B = math.isqrt(c - 1) + 1  # baby steps, and Q giant steps with Q B >= c
    Q = -(-c // B)
    grid = _fold(table.a, c, n_used, size=Q * B).reshape(Q, B)
    h1, h2 = _twisted_sums(grid, c, [(-d) % c, a_top % c])
    return complex(h1 - h2), err


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


class _SymbolSource:
    """What every reduction reads of a symbol source: T, z, norm_bound and blocks.

    blocks(bounds=False) yields the symbols in runs of exactly _SUM_CHUNK
    positions (the last run may be shorter), ordered by c then d as
    coset_arrays yields them: per run (norms, values), and with bounds
    each symbol's truncation bound too.  A reader does not write to them.
    Every call yields the same values, so a reduction may read the source
    again (series._block_sums does, for a non-finite sum).
    """

    def norm_bound(self, T=None):
        """T (default self.T) as a float in [1, self.T]; the identity coset has norm 1."""
        T = self.T if T is None else float(T)
        if not T >= 1:  # NaN too
            raise ValueError("T must be >= 1")
        if T > self.T:
            raise ValueError(f"batch only covers norms <= {self.T}")
        return T


@dataclass(frozen=True)
class SymbolBatch(_SymbolSource):
    """All non-identity cosets with N_z(gamma) <= T and their symbol values.

    norms and values hold one entry per symbol, ordered by c then d as
    coset_arrays(N, T, z) yields them (deterministic under any thread
    count), so the d of each symbol is read off that enumeration; the
    identity coset (value 0, norm 1) is excluded but counted in `count`.
    What is constant over a c is held once per c group, in ascending c:
    group_cs, group_counts (the symbols of each c, never 0) and
    group_err_bounds (the truncation bound shared by its symbols).  The
    property cs and per_symbol spell those out per symbol.  As a symbol
    source (_SymbolSource) its blocks are read-only views of the batch.
    """

    T: float
    z: complex
    norms: np.ndarray
    values: np.ndarray
    group_cs: np.ndarray
    group_counts: np.ndarray
    group_err_bounds: np.ndarray

    @property
    def cs(self):
        """c of every symbol (int64)."""
        return self.per_symbol(self.group_cs)

    def per_symbol(self, per_group, start=0, stop=None):
        """per_group's entry for each symbol at positions start..stop-1 (default all)."""
        ends = np.cumsum(self.group_counts)
        starts = ends - self.group_counts
        stop = len(self.norms) if stop is None else stop
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(starts, stop, side="left")
        reps = np.minimum(ends[first:last], stop) - np.maximum(starts[first:last], start)
        return np.repeat(per_group[first:last], reps)

    def blocks(self, bounds=False):
        for s in range(0, len(self.norms), _SUM_CHUNK):
            block = [self.norms[s : s + _SUM_CHUNK], self.values[s : s + _SUM_CHUNK]]
            for view in block:
                view.flags.writeable = False
            if bounds:
                block.append(self.per_symbol(self.group_err_bounds, s, s + _SUM_CHUNK))
            yield tuple(block)

    @property
    def count(self):
        """Enumeration count at T including the identity coset."""
        return len(self.norms) + 1

    def restricted(self, T):
        """The batch restricted to norms <= T (identity still implied); c groups left empty go."""
        T = self.norm_bound(T)
        m = self.norms <= T
        counts = self.group_counts
        if len(m):  # every group is non-empty, so the starts are distinct positions of m
            counts = np.add.reduceat(m, np.cumsum(counts) - counts, dtype=np.int64)
        g = counts > 0
        return SymbolBatch(
            T, self.z, self.norms[m], self.values[m],
            self.group_cs[g], counts[g], self.group_err_bounds[g],
        )


@dataclass(frozen=True)
class SymbolStream(_SymbolSource):
    """The symbols of symbols_up_to(table, N, T, z, tol, threads), formed anew on every read.

    Nothing per symbol is held.  groups() forms each c's symbols as
    coset_arrays yields the c, and blocks() copies the groups into the
    runs of _SymbolSource, each run in new arrays, so a reduction over
    the stream holds a few blocks whatever T is.  Every block holds the
    bits of the batch's block at the same positions.  symbol_stream
    builds one.
    """

    table: object
    N: int
    T: float
    z: complex
    tol: float
    threads: int

    def groups(self):
        """(c, ds, norms, values, err) for each c, in ascending c (_symbol_groups)."""
        return _symbol_groups(self.table, self.N, self.T, self.z, self.tol, self.threads)

    def blocks(self, bounds=False):
        dtypes = (np.float64, np.complex128, np.float64)[: 3 if bounds else 2]
        k = 0  # positions of the current block filled so far
        for _, _, norms, values, err in self.groups():
            i = 0
            while i < len(norms):  # a group may straddle blocks, or span several
                if k == 0:
                    block = [np.empty(_SUM_CHUNK, dtype=t) for t in dtypes]
                n = min(len(norms) - i, _SUM_CHUNK - k)
                for column, part in zip(block, (norms[i : i + n], values[i : i + n], err)):
                    column[k : k + n] = part
                i += n
                k += n
                if k == _SUM_CHUNK:
                    yield tuple(block)
                    k = 0
        if k:
            yield tuple(column[:k] for column in block)


def _carmichael(factors):
    """lambda(c) from c's (p, e) factorization: the exponent of (Z/cZ)^*."""
    lam = 1
    for p, e in factors:
        lam_pe = 1 << (e - 2) if p == 2 and e >= 3 else p ** (e - 1) * (p - 1)
        lam = lam * lam_pe // math.gcd(lam, lam_pe)
    return lam


@functools.lru_cache(maxsize=256)
def _prime_power_inverses(p, e):
    """inv[r] = r^{-1} mod q for the units r of q = p^e, 0 at non-units; read-only, cached.

    Each unit r <= q/2 is raised to lambda(q) - 1, lambda the Carmichael
    function (the exponent of the unit group, so r^{lambda} = 1;
    lambda(2^e) = 2^{e-2} for e >= 3), by vectorized square-and-multiply;
    the upper half follows from (q - r)^{-1} = q - r^{-1}.  Every c of a
    batch is a multiple of N, so the same small prime powers recur; a
    large prime divides few c, and the cache keeps the most recent 256.
    """
    q = p ** e
    rs = np.flatnonzero(_unit_mask(q)[1 : q // 2 + 1]) + 1
    base, power = rs, np.ones(len(rs), dtype=np.int64)
    k = _carmichael([(p, e)]) - 1
    while k:
        if k & 1:
            power = power * base % q
        base = base * base % q
        k >>= 1
    inv = np.zeros(q, dtype=np.int64)
    inv[rs] = power
    inv[q - rs] = q - power
    inv.flags.writeable = False
    return inv


def _inverse_table(c):
    """inv[r] = r^{-1} mod c for units r, 0 at non-units.

    The Chinese remainder theorem assembles it from the tables of c's
    prime powers q (_prime_power_inverses): inv = sum_q t_q[r mod q] mod c
    with t_q = inv_q * e_q mod c, where e_q = 1 mod q and 0 mod c/q: each
    t_q is added to inv viewed as rows of q, and the sum is reduced mod c
    once.  The multiples of each p | c are then cleared to 0.  Every
    product is of two residues below c, hence below c^2, so c is capped
    where c^2 would overflow int64.
    """
    if c * c >= 1 << 63:
        raise ValueError(f"c={c} too large for the int64 inverse table")
    factors = _prime_factors(c)
    inv = np.zeros(c, dtype=np.int64)
    for p, e in factors:
        q = p ** e
        m = c // q
        inv.reshape(m, q)[...] += _prime_power_inverses(p, e) * (m * pow(m, -1, q)) % c
    if len(factors) > 1:
        inv %= c
    for p, _ in factors:
        inv[::p] = 0
    return inv


def _symbols_for_c(table, c, ds, tol, out):
    """Symbol values for one c into out: residue fold + one DFT + one residue table.

    The symbol at d is H((-d+i)/c) - H((a+i)/c) with a = d^{-1} mod c, so
    it depends on r = d mod c alone: res[r] = hvals[-r] - hvals[inv[r]] is
    formed once for the c residues, repeated until its length exceeds
    every |d|, and each symbol reads its entry with np.take, which wraps
    each d into range in a single step.  ds must be ascending and
    non-empty.  Returns the truncation bound shared by every symbol at
    this c.
    """
    n_used, err = _terms_for_c(table, c, tol)
    hvals = np.fft.ifft(_fold(table.a, c, n_used)) * c  # hvals[k] = H((k+i)/c)
    res = np.empty((max(-int(ds[0]), int(ds[-1])) // c + 1, c), dtype=np.complex128)
    res[0, 0] = hvals[0]
    res[0, 1:] = hvals[:0:-1]  # res[r] = hvals[(-r) mod c]
    res[0] -= hvals[_inverse_table(c)]
    res[1:] = res[0]
    np.take(res.reshape(-1), ds, mode="wrap", out=out)
    return err


def _symbol_groups(table, N, T, z, tol, threads, out=None):
    """(c, ds, norms, values, err) for each group of coset_arrays(N, T, z), in ascending c.

    values holds the symbols at the group's ds (_symbols_for_c) and err
    their shared truncation bound.  out(i), if given, is the array group
    i's values are written into; otherwise each group gets a new one.  At
    threads > 1 this thread enumerates and the workers form the symbols,
    at most 2 * threads groups ahead, so no more groups than that are
    held; each group is yielded in turn, so the output is bit-identical
    for any `threads`.
    """

    def form(i, c, ds, norms):
        values = np.empty(len(ds), dtype=np.complex128) if out is None else out(i)
        return c, ds, norms, values, _symbols_for_c(table, c, ds, tol, values)

    enumerated = enumerate(coset_arrays(N, T, z))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # logging and all: only when asked

        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = collections.deque()
            for i, group in enumerated:
                pending.append(pool.submit(form, i, *group))
                if len(pending) > 2 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    else:
        for i, group in enumerated:
            yield form(i, *group)


def symbols_up_to(table, N, T, z=1j, tol=1e-10, threads=1):
    """SymbolBatch of every coset with N_z(gamma) <= T (identity excluded).

    Work is partitioned by c.  One pass counts each c's cosets without
    building them (cosets._group_sizes); norms and values are allocated at
    that size.  _symbol_groups then forms each c's group, whose norms are
    copied into its slice and whose symbols are written straight into
    theirs.  Each c writes only its own slice, so output is bit-identical
    for any `threads`.
    """
    z = complex(z)
    groups = list(_group_sizes(N, T, z))
    group_cs = np.array([c for c, _ in groups], dtype=np.int64)
    counts = np.array([n for _, n in groups], dtype=np.int64)
    starts = [0, *np.cumsum(counts).tolist()]
    norms = np.empty(starts[-1], dtype=np.float64)
    values = np.empty(starts[-1], dtype=np.complex128)
    errs = np.empty(len(groups), dtype=np.float64)

    def slot(i):
        return values[starts[i] : starts[i + 1]]

    for i, (_, _, group_norms, _, err) in enumerate(_symbol_groups(table, N, T, z, tol, threads, slot)):
        norms[starts[i] : starts[i + 1]] = group_norms
        errs[i] = err
    return SymbolBatch(float(T), z, norms, values, group_cs, counts, errs)


def symbol_stream(table, N, T, z=1j, tol=1e-10, threads=1):
    """SymbolStream of every coset with N_z(gamma) <= T: symbols_up_to's symbols, no batch.

    N, T and z are checked here, and so is the table: it must reach tol
    at the largest c (the terms needed grow with c), so a short table
    raises before anything is read, as symbols_up_to raises before it
    returns.
    """
    z = complex(z)
    c_max = max(_denominators(int(N), T, z), default=None)
    if c_max is not None:
        _terms_for_c(table, c_max, tol)
    return SymbolStream(table, int(N), float(T), z, tol, threads)
