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
"""

import math
from dataclasses import dataclass

import numpy as np

from .series import _SUM_CHUNK, _block_sums, _blocks, _double_half_factorial


@dataclass(frozen=True)
class MomentReport:
    pairs: dict
    gaussian_limit: dict


def tilde_factor(norm_f_sq, vol):
    if norm_f_sq <= 0 or vol <= 0:
        raise ValueError("norm_f_sq and vol must be positive")
    return math.sqrt(vol / (8 * math.pi ** 2 * norm_f_sq))


def normalize_arrays(values, norms, norm_f_sq, vol, out=None):
    """Normalized symbols (x, y, dropped_count).

    Samples with norm <= 1 are dropped and counted; a non-finite normalized
    value raises ValueError.  The kept samples' normalized complex values
    are written to out[:kept], one block of _SUM_CHUNK positions at a time,
    and x and y are the real and imaginary views of out[:kept].  out is a
    new complex128 array by default; out=values normalizes the caller's
    own array in place, which is safe because each block is a copy taken
    before its write and the kept samples before a position never outnumber
    it, so no write reaches a value not yet read.
    """
    values = np.asarray(values, dtype=np.complex128)
    norms = np.asarray(norms, dtype=np.float64)
    keep = norms > 1.0
    kept = int(keep.sum())
    scale = tilde_factor(norm_f_sq, vol)
    out = np.empty(kept, dtype=np.complex128) if out is None else out
    k = 0
    for v, nrm in _blocks(values, norms, mask=keep):  # masked blocks are copies: work in place
        v *= scale
        v /= np.sqrt(np.log(nrm, out=nrm), out=nrm)
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite normalized sample")
        out[k : k + len(v)] = v
        k += len(v)
    return out[:kept].real, out[:kept].imag, len(norms) - kept


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


def moments_from_arrays(x, y, n_max, m_max):
    """Exact sample moments M_{n,m} for 0 <= n <= n_max, 0 <= m <= m_max.

    One pass over blocks of _SUM_CHUNK samples: each block's power chains
    feed (n_max + 1)(m_max + 1) running exact sums, one product at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty sample stream")
    if len(y) != len(x):
        raise ValueError("x and y must have the same length")
    keys = [(i, j) for i in range(n_max + 1) for j in range(m_max + 1)]

    def blocks():
        for xb, yb in _blocks(x, y):
            xp = [np.ones_like(xb), *_power_chain(xb, n_max)]
            yp = [np.ones_like(yb), *_power_chain(yb, m_max)]
            yield (xp[i] * yp[j] for i, j in keys)

    sums = _block_sums(blocks, len(keys))[-1]
    pairs = {key: s / len(x) for key, s in zip(keys, sums)}
    limits = {key: gaussian_moment(*key) for key in pairs}
    return MomentReport(pairs=pairs, gaussian_limit=limits)


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


def histogram(values, bin_count, value_range):
    """Per-bin (lo, hi, count, expected) against the standard Gaussian.

    expected = sample_size * (Phi(hi) - Phi(lo)); expected masses over all
    bins sum to sample_size * Phi-mass of the range.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise ValueError("empty range")
    v = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(v, bins=bin_count, range=(lo, hi))
    out = []
    for k in range(bin_count):
        expected = len(v) * (normal_cdf(edges[k + 1]) - normal_cdf(edges[k]))
        out.append((float(edges[k]), float(edges[k + 1]), int(counts[k]), float(expected)))
    return out
