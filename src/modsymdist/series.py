"""Twisted Eisenstein partial sums, sharp/smoothed summatory functions, constants.

The summatory functions are sums of a weight omega_gamma over the cosets with
N_z(gamma) <= T; the weights implemented are

    one,  f_power(m, n) = v^m conj(v)^n,  alphabeta(j, k) = alpha^j beta^k,
    abs2m(m) = |v|^{2m},       where v = <gamma, f> = alpha + i beta.

Their leading asymptotics (in T, with a power of log T) carry explicit
residue constants; asymptotic_constants() tabulates them.  The smoothed
variant replaces the sharp cutoff by a C^2 quintic ramp supported on
[1 - 1/U, 1 + 1/U], which sandwiches the sharp sum for nonnegative weights.

All reductions are exact sums rounded once (_ExactSum, a vectorized
superaccumulator that returns math.fsum's result bit for bit), so results
are bit-identical regardless of thread count or sample permutation.

Block-size invariant: every reduction reads the symbols in blocks of
_SUM_CHUNK positions from a symbol source (modsym: a SymbolBatch, or a
SymbolStream that holds no symbols) and feeds exact sums (_block_sums).
The weight, the cutoff and every other temporary exist one block at a
time, so memory beyond the source is O(_SUM_CHUNK) whatever T is, and
since the integer bins persist across blocks and are exact, the blocking
never moves a bit of any result.  grid_sums covers a whole grid of T in
one pass, with one set of accumulators per T; sharp_sum and smoothed_sum
are its one-T calls.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import islice

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

    @property
    def total_degree(self):
        return self.m + (self.n if self.kind != "abs2m" else self.m)

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
    value: complex
    count: int
    mode: str
    err_budget: float = 0.0
    err_budget_exceeded: bool = False


@dataclass(frozen=True)
class AsymptoticConstant:
    """Leading term `leading * T * log(T)^power_of_logT`.

    exact=False marks odd alphabeta cases where only the upper bound
    O(T log^k T) with k strictly below (m+n)/2 is known; the constant is
    then reported as 0 and power_of_logT is that (non-sharp) ceiling.
    """

    weight: WeightSpec
    leading: complex
    power_of_logT: int
    exact: bool = True


def smooth_cutoff(t, U):
    """Quintic C^2 ramp: 1 for t <= 1-1/U, 0 for t >= 1+1/U, monotone between.

    Endpoint values are exact by construction (the clamps fire first).
    """
    if not 2 <= U < math.inf:
        raise ValueError("U must be >= 2 and finite")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    u = np.clip((t - (1.0 - 1.0 / U)) * (U / 2.0), 0.0, 1.0)
    out = 1.0 - u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))
    out[t <= 1.0 - 1.0 / U] = 1.0
    out[t >= 1.0 + 1.0 / U] = 0.0
    return float(out[0]) if scalar else out


# Every block of the symbol pipeline, and each _ExactSum segment: a sum of 2^14
# halves has at most 42 significant bits (a multiple of 2^27 units below 2^67, or of
# 1 unit below 2^42), so float64 bins are exact; any size up to 2^16 (44 bits) keeps that.
_SUM_CHUNK = 1 << 14
_SUM_BINS = 2047  # the exponent fields E of finite values
_SUM_OFFSET = 1075  # bin E holds multiples of its unit 2^(E - _SUM_OFFSET)
_SUM_UNITS = _SUM_OFFSET - np.arange(_SUM_BINS)  # ldexp by these turns bin sums into units
_HIGH_UNITS = _SUM_UNITS - 26  # the same for the high halves' bins, in units of 2^26
_HIGH_HALF = np.uint64((1 << 64) - (1 << 27))  # every bit but the mantissa's 27 lowest


class _ExactSum:
    """Exact sum of float64 values fed block by block, rounded on demand.

    A finite value v with biased exponent field E is an integer multiple
    of the unit 2^(E - 1075), below 2^53 of them: its ulp for E >= 1, half
    the spacing of the subnormals at E = 0.  Clearing the 27 low bits of
    its mantissa leaves a high half h, a multiple of 2^27 units, and the
    low half l = v - h is exact and below 2^28 units.  np.bincount sums
    each half by sign and E over segments of at most _SUM_CHUNK = 2^14
    values in float64, where every partial sum has at most 42 significant
    bits (a multiple of 2^27 units below 2^67, or of 1 unit below 2^42),
    hence is exact in any order; segments of up to 2^16 values (44 bits)
    would be exact too.  Per segment the float bins are
    scaled to integers and added to the int64 bins hi (units of 2^26) and
    lo, which therefore hold the exact sum of everything fed so far,
    however it was split into blocks; fewer than 2^35 values keep them
    below 2^63.

    `exact` turns False, and binning stops, once a value is non-finite or
    the sum is large enough that math.fsum could overflow on the way; both
    conditions only grow with what is fed.  `count` is the number of
    values fed either way.
    """

    def __init__(self):
        self.hi = np.zeros(_SUM_BINS, dtype=np.int64)
        self.lo = np.zeros(_SUM_BINS, dtype=np.int64)
        self.amax = 0.0
        self.count = 0
        self.exact = True

    def add(self, block):
        """Fold in a float64 array of any length."""
        block = np.asarray(block, dtype=np.float64)
        for s in range(0, len(block), _SUM_CHUNK):
            seg = block[s : s + _SUM_CHUNK]
            self.count += len(seg)
            if self.exact:
                self.amax = max(max(float(seg.max()), -float(seg.min())), self.amax)  # a nan stays
                self.exact = self.count < 1 << 35 and self.amax * self.count < 2.0 ** 1020
            if self.exact:
                bits = seg.view(np.uint64)
                key = (bits >> 52).view(np.int64)  # E, or 2048 + E below zero
                high = (bits & _HIGH_HALF).view(np.float64)
                halves = ((high, self.hi, _HIGH_UNITS), (seg - high, self.lo, _SUM_UNITS))
                for half, bins, units in halves:
                    sums = np.bincount(key, weights=half, minlength=4096)
                    both = sums[:_SUM_BINS] + sums[2048 : 2048 + _SUM_BINS]  # exact: 43 bits at most
                    bins += np.ldexp(both, units).astype(np.int64)

    def value(self):
        """The exact sum, rounded once.

        The bins are combined as one Python integer and divided by a power
        of two: int/int true division is correctly rounded (half to even),
        the same rounding math.fsum applies to the exact sum.
        """
        used = np.nonzero(self.hi | self.lo)[0].tolist()
        if not used:
            return 0.0
        base = used[0]
        total = 0
        for i in used:
            total += ((int(self.hi[i]) << 26) + int(self.lo[i])) << (i - base)
        shift = base - _SUM_OFFSET
        return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _block_sums(blocks, k):
    """Exact sums of k float64 streams from one pass over their blocks: (sums, counts).

    blocks() iterates the blocks: each item is an iterable of k float64
    arrays, the next values of each stream (the streams may differ in
    length).  sums[j] is math.fsum of stream j, bit for bit, and counts[j]
    the number of values it read.  A sum whose _ExactSum gave up is
    math.fsum of its stream read again from a new blocks() iterator, so
    inf, nan, ValueError and OverflowError come out exactly as math.fsum
    gives them; blocks() must yield the same values on every call.
    """
    accs = [_ExactSum() for _ in range(k)]
    for parts in blocks():
        for acc, part in zip(accs, parts, strict=True):
            acc.add(part)
    sums = [acc.value() if acc.exact else math.fsum(_stream(blocks, j)) for j, acc in enumerate(accs)]
    return sums, [acc.count for acc in accs]


def _stream(blocks, j):
    """The values of stream j of blocks() (see _block_sums), one at a time."""
    for parts in blocks():
        yield from next(islice(parts, j, None))


def _sum_reports(batch, weight, cuts, U=None):
    """SumReport per (T, bound) in cuts, all from one pass over batch.blocks().

    Each report sums the weight over the symbols with norm <= bound (times
    phi_U(norm / T) if U is given) plus the identity coset (times
    phi_U(1 / T)); its count is every coset with N_z(gamma) <= T.  Per
    block and per cut: the mask norms <= bound, then the streams Re and Im
    of the terms and the first-order bound max(|v|,1)^(deg-1) * err on
    |d omega| from the per-symbol truncation errors; at degree 0 there is
    no bound and the budget is 0.  Each cut has its own accumulators, and
    its block temporaries are made only as its streams are read, after the
    previous cut's; a block's copy of the values goes before its streams
    are read.
    """
    deg = weight.total_degree
    counts = []

    def parts(block):
        norms, values = block[:2]
        for T, bound in cuts:
            m = norms <= bound
            v = values[m]
            terms = weight.apply(v)
            if U is not None:
                terms = terms * smooth_cutoff(norms[m] / T, U)
            if deg:
                err = block[2][m]
                err *= np.maximum(np.abs(v), 1.0) ** (deg - 1)
            del v
            yield terms.real
            yield terms.imag
            if deg:
                yield err

    def blocks():
        tally = [0] * len(cuts)
        for block in batch.blocks(bounds=deg > 0):
            for j, (T, _) in enumerate(cuts):
                tally[j] += int(np.count_nonzero(block[0] <= T))
            yield parts(block)
        counts[:] = tally  # only a read to the end gets here, and each one counts the same

    width = 3 if deg else 2
    sums, _ = _block_sums(blocks, width * len(cuts))
    mode = "sharp" if U is None else f"smoothed(U={U:g})"
    reports = []
    for j, (T, _) in enumerate(cuts):
        re, im, *err_sum = sums[width * j : width * (j + 1)]
        value = complex(re, im) + weight.at_zero() * (1.0 if U is None else smooth_cutoff(1.0 / T, U))
        budget = float(deg * err_sum[0]) if deg else 0.0
        reports.append(SumReport(
            value=value,
            count=counts[j] + 1,
            mode=mode,
            err_budget=budget,
            err_budget_exceeded=bool(budget > 1e-6 * abs(value)) if value != 0 else budget > 0,
        ))
    return reports


def grid_sums(batch, weight, grid, U=None):
    """[SumReport at each T of grid]: sharp_sum's, or smoothed_sum's at U, from one pass.

    batch is any symbol source (a SymbolBatch or a SymbolStream), read
    once whatever the grid's length, with one set of exact accumulators
    per T; each report is bit-identical to a pass of its own.
    """
    if U is not None and not 2 <= U < math.inf:
        raise ValueError("U must be >= 2 and finite")
    cuts = [(T, T if U is None else T * (1 + 1.0 / U)) for T in map(batch.norm_bound, grid)]
    for _, bound in cuts:
        if bound > batch.T:
            raise ValueError(f"batch covers norms <= {batch.T}, need {bound}")
    return _sum_reports(batch, weight, cuts, U)


def sharp_sum(batch, weight, T=None):
    """Exact finite sum of the weight over cosets with N_z(gamma) <= T: grid_sums at one T.

    The identity coset contributes weight(0): 1 for kind 'one', 0 whenever a
    symbol factor is present.  A warning flag is set when the propagated
    truncation budget exceeds 1e-6 of the result.
    """
    return grid_sums(batch, weight, [T])[0]


def smoothed_sum(batch, weight, T, U):
    """Sum of omega_gamma * phi_U(N_z(gamma)/T) with the quintic cutoff: grid_sums at one T.

    Requires the batch to cover norms up to T(1+1/U); for nonnegative
    weights the result sits between sharp(T(1-1/U)) and sharp(T(1+1/U)).
    phi is taken block by block with the weight.
    """
    return grid_sums(batch, weight, [T], U)[0]


@dataclass(frozen=True)
class EisensteinReport:
    value: complex
    tail_estimate: float
    m: int
    n: int
    T_max: float
    count: int


def eisenstein_twisted(batch, s, m, n, T_max=None):
    """Partial sum of E^{m,n}(z, s) over N_z(gamma) <= T_max, plus tail estimate.

    Im(gamma z) = y / N_z(gamma), so the general term is
    v^m conj(v)^n (y / norm)^s; the identity coset contributes y^s (m=n=0
    only).  Negative m or n, non-finite s and Re(s) <= 1 (outside absolute
    convergence) are refused.  The tail estimate extrapolates the last
    decade's shell of |terms| geometrically and is reported separately,
    never folded in.  The value, both shells and the count come from one
    pass over the blocks of batch, any symbol source.
    """
    if m < 0 or n < 0:
        raise ValueError(f"exponents m={m}, n={n} must be >= 0")
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 1):
        raise ValueError("s must be finite with Re(s) > 1 (absolute convergence region)")
    T_max = batch.norm_bound(T_max)
    y = batch.z.imag

    def parts(norms, v):  # the four streams of one block, made as they are read
        terms = (v ** m) * (np.conj(v) ** n) * (y / norms) ** s
        del v
        yield terms.real
        yield terms.imag
        mags = np.abs(terms)
        del terms
        yield mags[norms > T_max / 10]
        yield mags[(norms > T_max / 100) & (norms <= T_max / 10)]

    def blocks():
        for norms, v in batch.blocks():
            inside = norms <= T_max
            yield parts(norms[inside], v[inside])

    (re, im, last, prev), (count, *_) = _block_sums(blocks, 4)
    value = complex(re, im)
    if m == 0 and n == 0:
        value += complex(y) ** s
    if prev > 0 and last < prev:
        ratio = last / prev
        tail = last * ratio / (1 - ratio)
    else:
        tail = last  # no decay observed; report the last shell mass itself
    return EisensteinReport(value, tail, m, n, T_max, count + 1)


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
        return AsymptoticConstant(w, complex(1.0 / (y * vol)), 0)
    if w.kind == "f_power":
        if w.m == w.n:
            return asymptotic_constants(
                WeightSpec("abs2m", w.m), vol, y, norm_f_sq=norm_f_sq
            )
        if (w.m, w.n) == (1, 0):
            if h_value is None:
                raise ValueError("f_power(1,0) constant needs h_value")
            return AsymptoticConstant(w, complex(h_value) / (y * vol), 0)
        if (w.m, w.n) == (2, 0):
            if h_value is None:
                raise ValueError("f_power(2,0) constant needs h_value")
            return AsymptoticConstant(w, complex(h_value) ** 2 / (y * vol), 0)
        raise ValueError(f"no closed-form constant for f_power({w.m},{w.n})")
    if w.kind == "abs2m":
        if norm_f_sq is None:
            raise ValueError("abs2m constant needs norm_f_sq")
        mm = w.m
        lead = (16 * math.pi ** 2 * norm_f_sq) ** mm * math.factorial(mm)
        return AsymptoticConstant(w, complex(lead / (y * vol ** (mm + 1))), mm)
    # alphabeta
    j, k = w.m, w.n
    if j % 2 or k % 2:
        return AsymptoticConstant(w, 0j, (j + k) // 2, exact=False)
    if norm_f_sq is None:
        raise ValueError("alphabeta constant needs norm_f_sq")
    half = (j + k) // 2
    lead = (
        (-8 * math.pi ** 2 * norm_f_sq) ** half
        * _double_half_factorial(j)
        * _double_half_factorial(k)
        / (y * vol ** (half + 1))
    )
    return AsymptoticConstant(w, complex(lead), half)
