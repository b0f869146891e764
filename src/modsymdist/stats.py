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
hold no sample array.  verify's criteria read the same blocks
(_normalized, _moments) and ks_distance's walk (_ks_sorted).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .series import _SUM_CHUNK, _block_sums, _double_half_factorial

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
        del nrm
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite normalized sample")
        yield v


def gaussian_moment(n, m):
    """E[X^n Y^m] for independent standard Gaussians X, Y."""
    if n < 0 or m < 0:
        raise ValueError("moment indices must be nonnegative")
    if n % 2 or m % 2:
        return 0.0
    return float(_double_half_factorial(n) * _double_half_factorial(m))


def _power_chain(x, k):
    """Yield x, x^2, ..., x^k, each power the previous one times x.

    The moments are sums of x^n y^m over these powers (_moments), so x^4
    is ((x x) x) x, not (x^2)^2.  A generator, so a caller that needs a
    few powers holds only those.
    """
    p = x
    for n in range(k):
        if n:
            p = p * x
        yield p


def _moments(xy_blocks, keys):
    """{(n, m): M_{n,m} for (n, m) in keys} over the (x, y) blocks of xy_blocks().

    One pass: each block's power chains feed one running exact sum per
    key, one product x^n y^m at a time; y's powers are held and x's made
    one at a time.  ValueError(NO_SAMPLES) if there is no sample.
    xy_blocks() is read again only for a non-finite sum.
    """
    keys = sorted(keys)
    n_max = max((n for n, _ in keys), default=0)
    m_max = max((m for _, m in keys), default=0)

    def products(xb, yb):
        yp = [1.0, *_power_chain(yb, m_max)]  # a zeroth power is 1.0, whose product moves no bit
        for n, xn in enumerate(itertools.chain([1.0], _power_chain(xb, n_max))):
            for m in (m for k, m in keys if k == n):
                yield xn * yp[m] if n or m else np.ones_like(xb)

    sums, (size, *_) = _block_sums(lambda: (products(*xy) for xy in xy_blocks()), len(keys))
    if not size:
        raise ValueError(NO_SAMPLES)
    return {key: s / size for key, s in zip(keys, sums)}


def symbol_moments(symbols, norm_f_sq, vol, n_max, m_max):
    """MomentReport of M_{n,m}, n <= n_max, m <= m_max, over a symbol source's normalized symbols.

    symbols is a SymbolBatch or a SymbolStream: each of its blocks is
    normalized (_normalized) and fed to the moments' exact sums
    (_moments), so no sample array is held and the result does not
    depend on how the symbols are blocked or ordered.  ValueError if no
    symbol has norm > 1.
    """

    def xy_blocks():
        for v in _normalized(symbols.blocks(), norm_f_sq, vol):
            yield v.real, v.imag

    keys = [(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]
    pairs = _moments(xy_blocks, keys)
    return MomentReport(pairs=pairs, gaussian_limit={key: gaussian_moment(*key) for key in pairs})


def normal_cdf(x):
    """Standard normal CDF via the double-precision error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _normal_cdf_values(v):
    """normal_cdf at every entry of the float64 array v, bit for bit.

    The division is one array pass; only math.erf runs per value.
    """
    return 0.5 * (1.0 + np.fromiter(map(math.erf, (v / math.sqrt(2.0)).tolist()), float, len(v)))


def ks_distance(values):
    """sup |F_empirical - Phi| against the standard normal CDF, over a sorted copy of values."""
    return _ks_sorted(np.sort(np.asarray(values, dtype=np.float64)))


def _ks_sorted(v):
    """ks_distance of the float64 array v, which is already ascending.

    v is walked in blocks of _SUM_CHUNK values, so only one block is ever
    turned into Python floats for math.erf.
    """
    n = len(v)
    if n == 0:
        raise ValueError("empty sample")
    above, below = [], []
    for s in range(0, n, _SUM_CHUNK):
        cdf = _normal_cdf_values(v[s : s + _SUM_CHUNK])
        i = np.arange(s + 1, s + len(cdf) + 1)
        above.append(np.max(cdf - (i - 1) / n))
        below.append(np.max(i / n - cdf))
    return float(max(np.max(above), np.max(below)))


def _histogram(blocks, bin_count, value_range):
    """(rows, sample count) of the float64 arrays of blocks, binned block by block.

    A row is (lo, hi, count, expected) per bin, expected = sample count *
    (Phi(hi) - Phi(lo)).  np.histogram bins each value on its own, so the
    counts of the blocks add up to those of their concatenation.
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


def symbol_histogram(symbols, norm_f_sq, vol, component, bin_count, value_range):
    """_histogram's rows of the normalized symbols' component ("re" or "im") of a symbol source.

    As symbol_moments: block by block, with no sample array, and
    ValueError if no symbol has norm > 1.
    """
    part = {"re": np.real, "im": np.imag}[component]
    parts = (part(v) for v in _normalized(symbols.blocks(), norm_f_sq, vol))
    rows, size = _histogram(parts, bin_count, value_range)
    if not size:
        raise ValueError(NO_SAMPLES)
    return rows
