"""Twisted Eisenstein partial sums, sharp/smoothed summatory functions, constants.

The summatory functions are sums of a weight omega_gamma over the cosets with
N_z(gamma) <= T; the weights implemented are

    one,  f_power(m, n) = v^m conj(v)^n,  alphabeta(j, k) = alpha^j beta^k,
    abs2m(m) = |v|^{2m},       where v = <gamma, f> = alpha + i beta.

Their leading asymptotics (in T, with a power of log T) carry explicit
residue constants; asymptotic_constants() tabulates them.  The smoothed
variant replaces the sharp cutoff by a C^2 quintic ramp supported on
[1 - 1/U, 1 + 1/U], which sandwiches the sharp sum for nonnegative weights.

All reductions are exact sums rounded once (_exact_sum, a vectorized
superaccumulator that returns math.fsum's result bit for bit), so results
are bit-identical regardless of thread count or sample permutation.  Sums
over nested prefixes of one array take a single pass
(_exact_prefix_sums): the integer bins are read off at each cut, so
samples sorted by norm shell give the sums at every norm bound at once.
"""

import math
from dataclasses import dataclass

import numpy as np

WEIGHT_KINDS = ("one", "f_power", "alphabeta", "abs2m")
MAX_EXPONENT = 6  # desk-scale guard: higher powers converge too slowly to matter


@dataclass(frozen=True)
class WeightSpec:
    kind: str
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise ValueError("exponents must be nonnegative")
        if self.total_degree > MAX_EXPONENT:
            raise ValueError(f"total symbol degree > {MAX_EXPONENT} not supported")

    @classmethod
    def parse(cls, text):
        """Parse 'one', 'f:m,n', 'ab:j,k' or 'abs2:m'."""
        if text == "one":
            return cls("one")
        try:
            tag, args = text.split(":")
            parts = [int(t) for t in args.split(",")]
        except ValueError:
            raise ValueError(f"bad weight spec {text!r}") from None
        if tag == "f" and len(parts) == 2:
            return cls("f_power", *parts)
        if tag == "ab" and len(parts) == 2:
            return cls("alphabeta", *parts)
        if tag == "abs2" and len(parts) == 1:
            return cls("abs2m", parts[0])
        raise ValueError(f"bad weight spec {text!r}")

    def __str__(self):
        return {
            "one": "one",
            "f_power": f"f:{self.m},{self.n}",
            "alphabeta": f"ab:{self.m},{self.n}",
            "abs2m": f"abs2:{self.m}",
        }[self.kind]

    @property
    def total_degree(self):
        return self.m + (self.n if self.kind != "abs2m" else self.m)

    @property
    def nonnegative(self):
        """True when omega_gamma >= 0 for every coset (sandwich applies)."""
        return self.kind == "one" or self.kind == "abs2m" or (
            self.kind == "f_power" and self.m == self.n
        )

    def apply(self, values):
        """Evaluate the weight on an array of symbol values.

        value = -2 pi i (P + iQ) with P, Q the path integrals of the real
        differentials Re(f dz), Im(f dz), so alpha = i Im(value) and
        beta = -i Re(value), and value = alpha + i beta exactly.
        """
        v = np.asarray(values, dtype=np.complex128)
        if self.kind == "one":
            return np.ones(v.shape, dtype=np.complex128)
        if self.kind == "f_power":
            return v ** self.m * np.conj(v) ** self.n
        if self.kind == "abs2m":
            return (np.abs(v) ** (2 * self.m)).astype(np.complex128)
        alpha = 1j * v.imag
        beta = -1j * v.real
        return alpha ** self.m * beta ** self.n

    def at_zero(self):
        """Weight of the identity coset (symbol value 0); 0^0 = 1 throughout."""
        return complex(self.apply(np.zeros(1))[0])


@dataclass(frozen=True)
class SumReport:
    T: float
    value: complex
    count: int
    weight: WeightSpec
    z: complex
    mode: str
    err_budget: float = 0.0
    err_budget_exceeded: bool = False


@dataclass(frozen=True)
class AsymptoticConstant:
    """Leading term `leading * T^power_of_T * log(T)^power_of_logT`.

    exact=False marks odd alphabeta cases where only the upper bound
    O(T log^k T) with k strictly below (m+n)/2 is known; the constant is
    then reported as 0 and power_of_logT is that (non-sharp) ceiling.
    """

    weight: WeightSpec
    leading: complex
    power_of_T: int
    power_of_logT: int
    exact: bool = True


def smooth_cutoff(t, U):
    """Quintic C^2 ramp: 1 for t <= 1-1/U, 0 for t >= 1+1/U, monotone between.

    Endpoint values are exact by construction (the clamps fire first).
    """
    if U < 2:
        raise ValueError("U must be >= 2")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    u = np.clip((t - (1.0 - 1.0 / U)) * (U / 2.0), 0.0, 1.0)
    out = 1.0 - u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))
    out[t <= 1.0 - 1.0 / U] = 1.0
    out[t >= 1.0 + 1.0 / U] = 0.0
    return float(out[0]) if scalar else out


_SUM_CHUNK = 1 << 16  # 2^16 halves of at most 2^27 keep every bin below 2^53
_SUM_BINS = 2098  # frexp exponents -1073..1024, offset by 1073
_SUM_OFFSET = 1073 + 53  # bin i holds multiples of 2^(i - _SUM_OFFSET)


def _exact_sum(values):
    """Correctly rounded sum of a real array, bit-identical to math.fsum.

    The one-cut case of _exact_prefix_sums.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    return _exact_prefix_sums(v, [len(v)])[0]


def _exact_prefix_sums(values, cuts):
    """math.fsum(values[:n]) bit for bit, for every n in cuts, from one pass.

    Each value is m * 2^(e-53) with m = frexp mantissa * 2^53, a signed
    53-bit integer.  m splits into a high half (m >> 26) and a low half in
    [0, 2^26); np.bincount sums each half by exponent e over segments of at
    most 2^16 values, so every partial bin sum is an integer below 2^53 and
    exact in any order.  A segment ends at every chunk boundary and at every
    cut, so the int64 bins hold the exact sum of values[:n] when the pass
    reaches n.  That snapshot is combined as one Python integer and rounded
    once by int/int true division, which is correctly rounded (half to
    even), the same rounding math.fsum applies to the exact sum.

    A prefix with a non-finite value, or large enough that math.fsum could
    overflow on the way, is handed to math.fsum (the prefix is a view, not a
    copy), so inf, nan, ValueError and OverflowError behave exactly as
    there.  Both conditions only grow with n, so the pass stops at the first
    segment that trips them and every later cut falls back as well.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    cuts = [int(n) for n in cuts]
    if any(n < 0 or n > len(v) for n in cuts):
        raise ValueError(f"cuts must lie in [0, {len(v)}]")
    stops = sorted(set(cuts))
    sums = {0: 0.0}
    hi_bins = np.zeros(_SUM_BINS, dtype=np.int64)
    lo_bins = np.zeros(_SUM_BINS, dtype=np.int64)
    amax = 0.0
    s = 0
    exact = True
    for n in stops:
        while exact and s < n:
            e = min(n, (s // _SUM_CHUNK + 1) * _SUM_CHUNK)
            seg = v[s:e]
            amax = max(max(float(seg.max()), -float(seg.min())), amax)  # a nan stays
            exact = e < 1 << 35 and amax * e < 2.0 ** 1020
            if not exact:
                break
            mant, exp = np.frexp(seg)
            m = np.ldexp(mant, 53).astype(np.int64)
            idx = exp + 1073
            hi_bins += np.bincount(idx, weights=m >> 26, minlength=_SUM_BINS).astype(np.int64)
            lo_bins += np.bincount(idx, weights=m & 0x3FFFFFF, minlength=_SUM_BINS).astype(np.int64)
            s = e
        if n:
            sums[n] = _round_bins(hi_bins, lo_bins) if s == n else math.fsum(v[:n])
    return [sums[n] for n in cuts]


def _round_bins(hi_bins, lo_bins):
    """The exact sum held in the bins, rounded once."""
    used = np.nonzero(hi_bins | lo_bins)[0].tolist()
    if not used:
        return 0.0
    base = used[0]
    total = 0
    for i in used:
        total += ((int(hi_bins[i]) << 26) + int(lo_bins[i])) << (i - base)
    shift = base - _SUM_OFFSET
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def cfsum(values):
    """Exact sum of a complex array, each part rounded once (see _exact_sum)."""
    v = np.asarray(values)
    if v.dtype.kind != "c":
        return complex(_exact_sum(v), 0.0)
    return complex(_exact_sum(v.real), _exact_sum(v.imag))


def _weighted_sum(batch, weight, mask, extra=None, identity_factor=1.0):
    """Exact sum of weight(values[mask]) plus the identity-coset term."""
    terms = weight.apply(batch.values[mask])
    if extra is not None:
        terms = terms * extra
    return cfsum(terms) + weight.at_zero() * identity_factor


def _error_budget(batch, weight, mask):
    """First-order bound on |d omega| from the per-symbol truncation errors."""
    deg = weight.total_degree
    if deg == 0:
        return 0.0
    v = np.abs(batch.values[mask])
    scale = np.maximum(v, 1.0) ** (deg - 1)
    return float(deg * _exact_sum(scale * batch.err_bounds[mask]))


def sharp_sum(batch, weight, T=None):
    """Exact finite sum of the weight over cosets with N_z(gamma) <= T.

    The identity coset contributes weight(0): 1 for kind 'one', 0 whenever a
    symbol factor is present.  A warning flag is set when the propagated
    truncation budget exceeds 1e-6 of the result.
    """
    T = batch.norm_bound(T)
    mask = batch.norms <= T
    value = _weighted_sum(batch, weight, mask)
    budget = _error_budget(batch, weight, mask)
    return SumReport(
        T=T,
        value=value,
        count=int(mask.sum()) + 1,
        weight=weight,
        z=batch.z,
        mode="sharp",
        err_budget=budget,
        err_budget_exceeded=bool(budget > 1e-6 * abs(value)) if value != 0 else budget > 0,
    )


def smoothed_sum(batch, weight, T, U):
    """Sum of omega_gamma * phi_U(N_z(gamma)/T) with the quintic cutoff.

    Requires the batch to cover norms up to T(1+1/U); for nonnegative
    weights the result sits between sharp(T(1-1/U)) and sharp(T(1+1/U)).
    """
    if U < 2:
        raise ValueError("U must be >= 2")
    T = batch.norm_bound(T)
    if T * (1 + 1.0 / U) > batch.T:
        raise ValueError(f"batch covers norms <= {batch.T}, need {T * (1 + 1/U)}")
    mask = batch.norms <= T * (1 + 1.0 / U)
    phi = smooth_cutoff(batch.norms[mask] / T, U)
    value = _weighted_sum(batch, weight, mask, extra=phi,
                          identity_factor=smooth_cutoff(1.0 / T, U))
    budget = _error_budget(batch, weight, mask)
    return SumReport(
        T=T,
        value=value,
        count=int((batch.norms <= T).sum()) + 1,
        weight=weight,
        z=batch.z,
        mode=f"smoothed(U={U:g})",
        err_budget=budget,
        err_budget_exceeded=bool(budget > 1e-6 * abs(value)) if value != 0 else budget > 0,
    )


@dataclass(frozen=True)
class EisensteinReport:
    value: complex
    tail_estimate: float
    s: complex
    m: int
    n: int
    T_max: float
    count: int


def eisenstein_twisted(batch, s, m, n, T_max=None):
    """Partial sum of E^{m,n}(z, s) over N_z(gamma) <= T_max, plus tail estimate.

    Im(gamma z) = y / N_z(gamma), so the general term is
    v^m conj(v)^n (y / norm)^s; the identity coset contributes y^s (m=n=0
    only).  Negative m or n, and Re(s) <= 1 (outside absolute convergence),
    are refused.  The tail estimate extrapolates the last decade's shell of
    |terms| geometrically and is reported separately, never folded in.
    """
    if m < 0 or n < 0:
        raise ValueError(f"exponents m={m}, n={n} must be >= 0")
    s = complex(s)
    if s.real <= 1:
        raise ValueError("Re(s) must exceed 1 (absolute convergence region)")
    T_max = batch.norm_bound(T_max)
    y = batch.z.imag
    mask = batch.norms <= T_max
    v = batch.values[mask]
    norms = batch.norms[mask]
    terms = (v ** m) * (np.conj(v) ** n) * (y / norms) ** s
    value = cfsum(terms)
    if m == 0 and n == 0:
        value += complex(y) ** s
    mags = np.abs(terms)
    last = _exact_sum(mags[norms > T_max / 10])
    prev = _exact_sum(mags[(norms > T_max / 100) & (norms <= T_max / 10)])
    if prev > 0 and last < prev:
        ratio = last / prev
        tail = last * ratio / (1 - ratio)
    else:
        tail = last  # no decay observed; report the last shell mass itself
    return EisensteinReport(value, tail, s, m, n, T_max, int(mask.sum()) + 1)


def _double_half_factorial(j):
    """j! / ((j/2)! 2^{j/2}) for even j: the j-th standard Gaussian moment."""
    return math.factorial(j) // (math.factorial(j // 2) * 2 ** (j // 2))


def asymptotic_constants(weight, vol, y=1.0, norm_f_sq=None, h_value=None):
    """Closed-form leading constant of the summatory function for `weight`.

    h_value is H(z) = 2 pi i Int_{i inf}^{z} f = antiderivative(table, z);
    it enters the f_power(1,0) and f_power(2,0) constants.  norm_f_sq is the
    Petersson norm squared, entering alphabeta and abs2m.

    Table (leading, log power), all divided by y:
      one            : 1 / vol,                              0
      f_power(1,0)   : h / vol,                              0
      f_power(2,0)   : h^2 / vol,                            0
      f_power(m,m)   : same as abs2m(m)
      alphabeta(2a,2b): (-8 pi^2 nfsq)^{a+b}/vol^{a+b+1} *
                        (2a)!/(a! 2^a) * (2b)!/(b! 2^b),     a+b
      alphabeta odd  : 0 (order strictly below (j+k)/2),     upper bound
      abs2m(m)       : (16 pi^2 nfsq)^m m! / vol^{m+1},      m

    The f_power(1,0) sign follows the first-moment residue (+2 pi i Int),
    which the numerics pin down; see the README's accuracy notes.
    """
    w = weight
    if w.kind == "one":
        return AsymptoticConstant(w, complex(1.0 / (y * vol)), 1, 0)
    if w.kind == "f_power":
        if w.m == w.n:
            return asymptotic_constants(
                WeightSpec("abs2m", w.m), vol, y, norm_f_sq=norm_f_sq
            )
        if (w.m, w.n) == (1, 0):
            if h_value is None:
                raise ValueError("f_power(1,0) constant needs h_value")
            return AsymptoticConstant(w, complex(h_value) / (y * vol), 1, 0)
        if (w.m, w.n) == (2, 0):
            if h_value is None:
                raise ValueError("f_power(2,0) constant needs h_value")
            return AsymptoticConstant(w, complex(h_value) ** 2 / (y * vol), 1, 0)
        raise ValueError(f"no closed-form constant for f_power({w.m},{w.n})")
    if w.kind == "abs2m":
        if norm_f_sq is None:
            raise ValueError("abs2m constant needs norm_f_sq")
        mm = w.m
        lead = (16 * math.pi ** 2 * norm_f_sq) ** mm * math.factorial(mm)
        return AsymptoticConstant(w, complex(lead / (y * vol ** (mm + 1))), 1, mm)
    # alphabeta
    j, k = w.m, w.n
    if j % 2 or k % 2:
        return AsymptoticConstant(w, 0j, 1, (j + k) // 2, exact=False)
    if norm_f_sq is None:
        raise ValueError("alphabeta constant needs norm_f_sq")
    half = (j + k) // 2
    lead = (
        (-8 * math.pi ** 2 * norm_f_sq) ** half
        * _double_half_factorial(j)
        * _double_half_factorial(k)
        / (y * vol ** (half + 1))
    )
    return AsymptoticConstant(w, complex(lead), 1, half)
