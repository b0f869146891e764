"""Normalized modular symbols, their moments, and Gaussian comparison.

The normalization is

    x + i y = sqrt(vol / (8 pi^2 ||f||^2)) * <gamma, f> / sqrt(log N_z(gamma)),

samples with N_z(gamma) <= 1 being dropped (only finitely many exist; at
z = i just the identity).  The empirical moments

    M_{n,m}(X_T) = mean of x^n y^m over retained samples with N_z <= T

converge to the moments of the standard bivariate Gaussian with correlation
zero: n!/((n/2)! 2^{n/2}) * m!/((m/2)! 2^{m/2}) for even n, m and 0 otherwise.
Moment accumulation uses exact summation rounded once (series._ExactSum),
so the reported values are permutation-invariant bit for bit.  Like the
sums in series, every pass over the samples runs in blocks of
series._SUM_CHUNK positions, which bounds its temporaries and moves no bit.
symbol_moments and symbol_histogram normalize a symbol source (modsym)
block by block on the way into the moments and the bin counts, so they
hold no sample array; normalize_arrays, moments_from_arrays and histogram
are the same passes over arrays.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .series import _SUM_CHUNK, _block_sums, _blocks, _double_half_factorial

NO_SAMPLES = "no samples with N_z(gamma) > 1 at this T"


@dataclass(frozen=True)
class MomentReport:
    pairs: dict
    gaussian_limit: dict


def tilde_factor(norm_f_sq, vol):
    if norm_f_sq <= 0 or vol <= 0:
        raise ValueError("norm_f_sq and vol must be positive")
    return math.sqrt(vol / (8 * math.pi ** 2 * norm_f_sq))


def _normalized(blocks, norm_f_sq, vol):
    """Per (norms, values) block: the normalized values of its samples with norm > 1.

    Each block's kept samples are copied into a new complex array and
    normalized there; a non-finite normalized value raises ValueError.
    """
    scale = tilde_factor(norm_f_sq, vol)
    for norms, values in blocks:
        keep = norms > 1.0
        v, nrm = values[keep], norms[keep]  # copies: work in place
        v *= scale
        v /= np.sqrt(np.log(nrm, out=nrm), out=nrm)
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite normalized sample")
        yield v


def normalize_arrays(values, norms, norm_f_sq, vol):
    """Normalized symbols (x, y, dropped_count) as arrays.

    Samples with norm <= 1 are dropped and counted; a non-finite normalized
    value raises ValueError.  The kept samples are normalized one block of
    _SUM_CHUNK positions at a time (_normalized) into one new complex
    array, of which x and y are the real and imaginary views.
    """
    values = np.asarray(values, dtype=np.complex128)
    norms = np.asarray(norms, dtype=np.float64)
    kept = sum(int(np.count_nonzero(n > 1.0)) for n, in _blocks(norms))
    out = np.empty(kept, dtype=np.complex128)
    k = 0
    for v in _normalized(_blocks(norms, values), norm_f_sq, vol):
        out[k : k + len(v)] = v
        k += len(v)
    return out.real, out.imag, len(norms) - kept


def gaussian_moment(n, m):
    """E[X^n Y^m] for independent standard Gaussians X, Y."""
    if n < 0 or m < 0:
        raise ValueError("moment indices must be nonnegative")
    if n % 2 or m % 2:
        return 0.0
    return float(_double_half_factorial(n) * _double_half_factorial(m))


def _power_chain(x, k):
    """Yield x, x^2, ..., x^k, each power the previous one times x.

    The moments are sums of x^n y^m over these powers, so every caller that
    must agree with moments_from_arrays bit for bit takes its powers from
    here: x^4 is ((x x) x) x, not (x^2)^2.  A generator, so a caller that
    needs a few powers holds only those.
    """
    p = x
    for n in range(k):
        if n:
            p = p * x
        yield p


def _moments(xy_blocks, n_max, m_max, empty):
    """MomentReport of the (x, y) blocks xy_blocks() yields; ValueError(empty) if they hold no sample.

    One pass: each block's power chains feed (n_max + 1)(m_max + 1)
    running exact sums, one product x^i y^j at a time, in the order of the
    keys; y's powers are held, x's made one at a time.  xy_blocks() is read
    again only for a non-finite sum (series._block_sums).
    """
    keys = [(i, j) for i in range(n_max + 1) for j in range(m_max + 1)]
    size = []

    def products(xb, yb):
        yp = [np.ones_like(yb), *_power_chain(yb, m_max)]
        for xi in itertools.chain([np.ones_like(xb)], _power_chain(xb, n_max)):
            for yj in yp:
                yield xi * yj

    def blocks():
        n = 0
        for xb, yb in xy_blocks():
            n += len(xb)
            yield products(xb, yb)
        size[:] = [n]  # only a read to the end gets here, and each one counts the same

    sums = _block_sums(blocks, len(keys))[-1]
    if not size[0]:
        raise ValueError(empty)
    pairs = {key: s / size[0] for key, s in zip(keys, sums)}
    limits = {key: gaussian_moment(*key) for key in pairs}
    return MomentReport(pairs=pairs, gaussian_limit=limits)


def moments_from_arrays(x, y, n_max, m_max):
    """Exact sample moments M_{n,m} for 0 <= n <= n_max, 0 <= m <= m_max.

    One pass over blocks of _SUM_CHUNK samples (_moments).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty sample stream")
    if len(y) != len(x):
        raise ValueError("x and y must have the same length")
    return _moments(lambda: _blocks(x, y), n_max, m_max, "empty sample stream")


def symbol_moments(symbols, norm_f_sq, vol, n_max, m_max):
    """moments_from_arrays of the normalized symbols of a symbol source, with no sample array.

    symbols is a SymbolBatch or a SymbolStream: each of its blocks is
    normalized (_normalized) and fed to the moments' exact sums, so the
    result is bit-identical to normalize_arrays and moments_from_arrays
    over the whole batch.  ValueError if no symbol has norm > 1.
    """

    def xy_blocks():
        for v in _normalized(symbols.blocks(), norm_f_sq, vol):
            yield v.real, v.imag

    return _moments(xy_blocks, n_max, m_max, NO_SAMPLES)


def normal_cdf(x):
    """Standard normal CDF via the double-precision error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _normal_cdf_values(v):
    """normal_cdf at every entry of the float64 array v, bit for bit.

    The division is one array pass; only math.erf runs per value.
    """
    return 0.5 * (1.0 + np.fromiter(map(math.erf, (v / math.sqrt(2.0)).tolist()), float, len(v)))


def ks_distance(values):
    """sup |F_empirical - Phi| against the standard normal CDF.

    The sorted sample is walked in blocks of _SUM_CHUNK values, so only one
    block is ever turned into Python floats for math.erf.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 0:
        raise ValueError("empty sample")
    n = len(v)
    above, below = [], []
    for s in range(0, n, _SUM_CHUNK):
        cdf = _normal_cdf_values(v[s : s + _SUM_CHUNK])
        i = np.arange(s + 1, s + len(cdf) + 1)
        above.append(np.max(cdf - (i - 1) / n))
        below.append(np.max(i / n - cdf))
    return float(max(np.max(above), np.max(below)))


def _histogram(blocks, bin_count, value_range):
    """(rows, sample count) of histogram over the float64 arrays of blocks, summed block by block.

    np.histogram bins each value on its own, so the counts of the blocks
    add up to those of their concatenation.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise ValueError("empty range")
    counts = np.zeros(bin_count, dtype=np.int64)
    n = 0
    for v in blocks:
        counts += np.histogram(v, bins=bin_count, range=(lo, hi))[0]
        n += len(v)
    edges = np.histogram(np.empty(0), bins=bin_count, range=(lo, hi))[1]
    rows = []
    for k in range(bin_count):
        expected = n * (normal_cdf(edges[k + 1]) - normal_cdf(edges[k]))
        rows.append((float(edges[k]), float(edges[k + 1]), int(counts[k]), float(expected)))
    return rows, n


def histogram(values, bin_count, value_range):
    """Per-bin (lo, hi, count, expected) against the standard Gaussian.

    expected = sample_size * (Phi(hi) - Phi(lo)); expected masses over all
    bins sum to sample_size * Phi-mass of the range.  The values are
    binned one block of _SUM_CHUNK at a time.
    """
    v = np.asarray(values, dtype=np.float64)
    return _histogram((b for b, in _blocks(v)), bin_count, value_range)[0]


def symbol_histogram(symbols, norm_f_sq, vol, component, bin_count, value_range):
    """histogram of the normalized symbols' component ("re" or "im") of a symbol source.

    As symbol_moments: block by block, with no sample array, and
    ValueError if no symbol has norm > 1.
    """
    part = {"re": np.real, "im": np.imag}[component]
    parts = (part(v) for v in _normalized(symbols.blocks(), norm_f_sq, vol))
    rows, size = _histogram(parts, bin_count, value_range)
    if not size:
        raise ValueError(NO_SAMPLES)
    return rows
