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
are bit-identical regardless of thread count or sample permutation.  Each
sum bins its values' high and low halves by exponent in float64, two
np.bincounts a segment; the bins stay exact for 2^26 values and are then
carried into one Python integer, and once more when the sum is read.  The
guard that hands a sum to math.fsum (an inf, a nan, or a size at which
math.fsum could overflow on the way) is read off the same bin counts.
Sums whose value is known are not taken: _sum_reports sums no Im for the
real kinds one and abs2m, and stats._moments takes M00 from the count.

Block-size invariant: every reduction reads the symbols in blocks of
_SUM_CHUNK positions from a symbol source (modsym: a SymbolBatch, or a
SymbolStream that holds no symbols) and feeds exact sums (_block_sums).
The weight, the cutoff and every other temporary exist one block at a
time, so memory beyond the source is O(_SUM_CHUNK) whatever T is, and
since the bins persist across blocks and are exact, the blocking never
moves a bit of any result.  grid_sums covers a whole grid of T in one
pass, with one set of accumulators per T; sharp_sum and smoothed_sum are
its one-T calls.
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


# Every block of the symbol pipeline, and each _ExactSum segment: any size up to
# _CARRY keeps the float bins exact.
_SUM_CHUNK = 1 << 14
_SUM_BINS = 2047  # the exponent fields E of finite values
_SUM_OFFSET = 1075  # bin E holds multiples of its unit 2^(E - _SUM_OFFSET)
_SUM_UNITS = _SUM_OFFSET - np.arange(_SUM_BINS)  # ldexp by these turns bin sums into units
_HIGH_UNITS = _SUM_UNITS - 27  # the same for the high halves' bins, in units of 2^27
_HIGH_HALF = np.uint64((1 << 64) - (1 << 27))  # every bit but the mantissa's 27 lowest
# A bin count over both signs dotted with this: the sum of |values| times 2^-64, which
# no finite count overflows
_MAGNITUDE = np.repeat([2.0 ** -64, -(2.0 ** -64)], 2048)
_MASS_LIMIT = 2.0 ** (1019 - 64)  # below it (times 2^64), math.fsum cannot overflow on the way
_CARRY = 1 << 26  # values the float bins take between carries into the integer total


class _ExactSum:
    """Exact sum of float64 values fed block by block, rounded on demand.

    A finite value v with biased exponent field E is an integer multiple
    of its spacing g, below 2^53 of them: g is its ulp 2^(E - 1075) for
    E >= 1 and 2^-1074 for the subnormals at E = 0.  Clearing the 27 low
    bits of its mantissa leaves a high half h, a multiple of 2^27 g, and
    the low half l = v - h, exact and below 2^27 g.  Per segment of at
    most _SUM_CHUNK values, np.bincount sums each half by sign and E in
    float64, and both signs of each E are added into the float bins hi
    and lo.  Every partial sum of a bin, in any order, is a sum of at most
    N of its halves: a multiple of 2^27 g below N 2^26 of them for hi, a
    multiple of g below N 2^27 of them for lo.  So while N <= 2^26 both
    are below 2^53 of their granularity and exact.  The bins take at most
    _CARRY = 2^26 values (one segment if that is set lower) before they
    are carried into the Python integer total, counted in the units
    2^(E - 1075) (g/2 at E = 0), and value() carries what is left; total
    is thus the exact sum of everything fed, however it was split into
    blocks.

    `exact` turns False, and binning stops, once mass, the sum of the
    high halves' magnitudes (each segment's bin counts dotted with
    _MAGNITUDE), reaches 2^1019: with room for rounding and the low
    halves, the sum of |values| fed stays below 2^1020, where math.fsum
    cannot overflow on the way and the float bins cannot either.  An inf
    or a nan lands in the top exponent field and makes mass inf or nan,
    which fails the test too.  mass is read off the counts before both
    signs are added into one bin, since a bin can cancel to 0 although
    math.fsum overflows on the way to it (2^1023 + 1.5 * 2^1022 + 1.5 *
    2^1022 - ...).  Both conditions only grow with what is fed.  `count`
    is the number of values fed either way.
    """

    def __init__(self):
        self.hi = np.zeros(_SUM_BINS)
        self.lo = np.zeros(_SUM_BINS)
        self.total = 0  # in units of 2^-1075
        self.fed = 0  # values in the float bins since the last carry
        self.mass = 0.0  # times 2^-64
        self.count = 0
        self.exact = True

    def add(self, block):
        """Fold in a float64 array of any length."""
        block = np.ascontiguousarray(block, dtype=np.float64)
        self.count += len(block)
        for s in range(0, len(block), _SUM_CHUNK):
            if not self.exact:
                return
            seg = block[s : s + _SUM_CHUNK]
            if self.fed + len(seg) > _CARRY:
                self._carry()
            self.fed += len(seg)
            bits = seg.view(np.uint64)
            key = (bits >> 52).view(np.int64)  # E, or 2048 + E below zero
            half = (bits & _HIGH_HALF).view(np.float64)  # the high halves, then the low ones
            sums = np.bincount(key, weights=half, minlength=4096)
            self.mass += float(sums.dot(_MAGNITUDE))
            self.exact = self.mass < _MASS_LIMIT  # False for nan too
            if self.exact:
                self.hi += sums[:_SUM_BINS]
                self.hi += sums[2048 : 2048 + _SUM_BINS]
                sums = np.bincount(key, weights=np.subtract(seg, half, out=half), minlength=4096)
                self.lo += sums[:_SUM_BINS]
                self.lo += sums[2048 : 2048 + _SUM_BINS]

    def _carry(self):
        """Move the float bins into the integer total and clear them."""
        used = np.flatnonzero(np.logical_or(self.hi, self.lo))
        if len(used):
            hi = np.ldexp(self.hi[used], _HIGH_UNITS[used]).astype(np.int64).tolist()
            lo = np.ldexp(self.lo[used], _SUM_UNITS[used]).astype(np.int64).tolist()
            base = int(used[0])
            total = 0
            for e, h, l in zip(used.tolist(), hi, lo):
                total += ((h << 27) + l) << (e - base)
            self.total += total << base
            self.hi[:] = 0.0
            self.lo[:] = 0.0
        self.fed = 0

    def value(self):
        """The exact sum, rounded once.

        int/int true division is correctly rounded (half to even), the
        same rounding math.fsum applies to the exact sum.
        """
        self._carry()
        return self.total / (1 << _SUM_OFFSET) if self.total else 0.0


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
    no bound and the budget is 0.  The kinds one and abs2m have real terms,
    1 and |v|^(2m), taken in float64 (times phi: the same bits as the Re of the
    complex product).  Their Im would be +0.0 (times phi, r * 0 + 0 * phi:
    +0.0 while both are finite, else nan, and Re's sum is then not finite),
    so it is not summed: it is 0.0, or nan beside a smoothed Re that is not
    finite, as math.fsum of it would be.  Each cut has its own accumulators, and
    its block temporaries are made only as its streams are read, after the
    previous cut's; a block's copy of the values goes before its streams
    are read.
    """
    deg = weight.total_degree
    real = weight.kind in ("one", "abs2m")
    counts = []

    def parts(block):
        norms, values = block[:2]
        for T, bound in cuts:
            m = norms <= bound
            v = values[m]
            if weight.kind == "one":
                terms = np.ones(len(v))
            elif weight.kind == "abs2m":
                terms = np.abs(v) ** (2 * weight.m)
            else:
                terms = weight.apply(v)
            if U is not None:
                terms = terms * smooth_cutoff(norms[m] / T, U)
            if deg:
                err = block[2][m]
                err *= np.maximum(np.abs(v), 1.0) ** (deg - 1)
            del v
            yield terms.real
            if not real:
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

    width = 1 + (not real) + (deg > 0)
    sums = iter(_block_sums(blocks, width * len(cuts))[0])
    mode = "sharp" if U is None else f"smoothed(U={U:g})"
    reports = []
    for j, (T, _) in enumerate(cuts):
        re = next(sums)
        im = next(sums) if not real else 0.0 if U is None or math.isfinite(re) else math.nan
        value = complex(re, im) + weight.at_zero() * (1.0 if U is None else smooth_cutoff(1.0 / T, U))
        budget = float(deg * next(sums)) if deg else 0.0
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
