"""Normalization, moments, KS distance, and histogram tests."""

import math
import random
import re

import numpy as np
import pytest

from modsymdist import series, stats
from modsymdist.cosets import volume
from modsymdist.modsym import SymbolBatch, symbol_stream, symbols_up_to
from modsymdist.stats import (
    NO_SAMPLES,
    gaussian_moment,
    ks_distance,
    normal_cdf,
    symbol_histogram,
    symbol_moments,
)
from test_series import _blocks

VOL11 = 4 * math.pi
UNIT_NFSQ = VOL11 / (8 * math.pi ** 2)  # tilde_factor 1 up to rounding: at norm e, x + iy ~ the value


def _normalize(values, norms, norm_f_sq, vol):
    """(x, y, dropped) of plain arrays, normalized block by block (stats._normalized)."""
    values = np.asarray(values, dtype=np.complex128)
    norms = np.asarray(norms, dtype=np.float64)
    blocks = stats._normalized(_blocks(norms, values), norm_f_sq, vol)
    v = np.concatenate([np.empty(0, complex), *blocks])
    return v.real, v.imag, len(norms) - len(v)


def _moments(x, y, n_max, m_max):
    """Every M_{n,m}, n <= n_max, m <= m_max, of plain arrays, block by block (stats._moments)."""
    keys = [(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]
    return stats._moments(lambda: _blocks(x, y), keys)


def _histogram(values, bin_count, value_range):
    """stats._histogram's rows of a plain array, binned block by block."""
    blocks = (b for b, in _blocks(np.asarray(values, dtype=np.float64)))
    return stats._histogram(blocks, bin_count, value_range)[0]


def _one_group(values, norms):
    """The arrays as a SymbolBatch of one c group, so they can be read as a symbol source."""
    return SymbolBatch(T=float(np.max(norms)), z=1j, norms=norms, values=values, group_cs=np.array([11]),
                       group_counts=np.array([len(norms)]), group_err_bounds=np.array([0.0]))


def _unit_batch(x, y):
    """x + iy at norm e, a source whose normalized symbols are x + iy up to rounding."""
    return _one_group(x + 1j * y, np.full(len(x), math.e))


def test_normalize_drops_identity(batch11_1e4):
    # the batch implies the identity coset (symbol 0, norm 1); put it back in front
    values = np.concatenate([[0j], batch11_1e4.values])
    norms = np.concatenate([[1.0], batch11_1e4.norms])
    x, y, dropped = _normalize(values, norms, 0.0469, VOL11)
    kept = norms[norms > 1]
    assert dropped == 1  # only the identity coset has norm <= 1 at z = i
    assert len(x) == len(y) == len(kept) == len(values) - 1


def test_normalize_zero_and_scaling():
    vals = np.array([0j, 1 + 1j])
    nrms = np.array([100.0, 100.0])
    x1, y1, _ = _normalize(vals, nrms, 1.0, VOL11)
    assert x1[0] == 0 and y1[0] == 0
    x2, y2, _ = _normalize(vals, nrms, 4.0, VOL11)  # 4x norm -> halves
    assert x2[1] == pytest.approx(x1[1] / 2, rel=1e-15)
    assert y2[1] == pytest.approx(y1[1] / 2, rel=1e-15)


def test_gaussian_moment_values():
    assert gaussian_moment(0, 0) == 1
    assert gaussian_moment(2, 0) == 1
    assert gaussian_moment(4, 0) == 3
    assert gaussian_moment(2, 2) == 1
    assert gaussian_moment(4, 2) == 3
    assert gaussian_moment(6, 0) == 15
    assert gaussian_moment(3, 0) == 0
    assert gaussian_moment(1, 1) == 0


def test_moments_basics_and_permutation_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    rep = symbol_moments(_unit_batch(x, y), UNIT_NFSQ, VOL11, 4, 4)
    assert rep.pairs[(0, 0)] == 1.0
    perm = rng.permutation(4000)
    rep2 = symbol_moments(_unit_batch(x[perm], y[perm]), UNIT_NFSQ, VOL11, 4, 4)
    assert rep.pairs == rep2.pairs  # exact: compensated summation
    assert rep.gaussian_limit[(4, 0)] == 3
    assert rep.pairs[(2, 0)] == pytest.approx(1.0, abs=0.1)


def test_power_chain_is_the_moment_chain():
    # x^4 is ((x x) x) x, which can differ from (x^2)^2 in the last bit
    x = np.random.default_rng(4).standard_normal(5000)
    p = list(stats._power_chain(x, 4))
    assert len(p) == 4 and p[0] is x
    assert p[3].tobytes() == (((x * x) * x) * x).tobytes()
    assert p[3].tobytes() != ((x * x) * (x * x)).tobytes()
    assert list(stats._power_chain(x, 0)) == []
    assert _moments(x, x[::-1], 4, 0)[(4, 0)] == math.fsum(((x * x) * x) * x) / len(x)


def test_moments_empty_stream_rejected():
    with pytest.raises(ValueError, match=re.escape(NO_SAMPLES)):
        _moments(np.zeros(0), np.zeros(0), 2, 2)
    x, y, _ = _normalize([0j], [1.0], 0.0469, VOL11)  # the identity alone
    with pytest.raises(ValueError, match=re.escape(NO_SAMPLES)):
        _moments(x, y, 2, 2)
    with pytest.raises(ValueError, match=re.escape(NO_SAMPLES)):
        symbol_moments(_one_group(np.array([0j]), np.array([1.0])), 0.0469, VOL11, 2, 2)


def test_moments_match_gaussian_on_synthetic():
    rng = np.random.default_rng(11)
    n = 200000
    rep = symbol_moments(_unit_batch(rng.normal(size=n), rng.normal(size=n)), UNIT_NFSQ, VOL11, 4, 4)
    for key, lim in rep.gaussian_limit.items():
        assert rep.pairs[key] == pytest.approx(lim, abs=0.08)


def test_ks_distance_point_mass():
    assert ks_distance(np.zeros(100)) == pytest.approx(0.5, abs=1e-12)


def test_ks_distance_seeded_normal_below_002():
    draws = np.random.default_rng(0).normal(size=10 ** 4)
    assert ks_distance(draws) < 0.02  # Monte Carlo oracle, seeded


def test_ks_distance_shifted_to_one():
    draws = np.random.default_rng(0).normal(size=2000) + 10.0
    assert ks_distance(draws) > 0.999


def test_ks_cdf_bit_identical_to_per_value_division():
    edge = [0.0, -0.0, 5e-324, 40.0, -40.0, math.inf, -math.inf]
    v = np.sort(np.concatenate([np.random.default_rng(4).normal(size=5000), edge]))
    per_value = 0.5 * (1.0 + np.array([math.erf(t / math.sqrt(2.0)) for t in v]))
    assert stats._normal_cdf_values(v).tobytes() == per_value.tobytes()


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_histogram_single_bin_counts_everything():
    v = np.random.default_rng(1).normal(size=500)
    rows = _histogram(v, 1, (-1e9, 1e9))
    assert rows[0][2] == 500
    assert rows[0][3] == pytest.approx(500.0, abs=1e-6)


def test_histogram_symmetric_masses():
    v = np.random.default_rng(2).normal(size=1000)
    rows = _histogram(v, 8, (-4, 4))
    for k in range(4):
        assert rows[k][3] == pytest.approx(rows[7 - k][3], rel=1e-9)
    assert sum(r[2] for r in rows) <= 1000
    total_mass = sum(r[3] for r in rows)
    assert total_mass == pytest.approx(1000 * (normal_cdf(4) - normal_cdf(-4)), rel=1e-12)


def test_histogram_validation():
    source = _one_group(np.ones(3, dtype=complex), np.full(3, 10.0))
    for bins, value_range in ((0, (-1, 1)), (4, (1, -1))):
        with pytest.raises(ValueError):
            _histogram(np.zeros(3), bins, value_range)
        with pytest.raises(ValueError):
            symbol_histogram(source, 0.05, VOL11, "re", bins, value_range)


def test_normalized_sample_validation():
    x, y, dropped = _normalize([0j], [1.0], 1.0, VOL11)
    assert len(x) == len(y) == 0 and dropped == 1  # norm must exceed 1
    for bad in (complex(math.nan, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            _normalize([bad], [2.0], 1.0, VOL11)


# ---------------------------------------------------------------------------
# Block pipeline against the full-array code it replaced
# ---------------------------------------------------------------------------

CHUNK = series._SUM_CHUNK
BLOCK_BYTES = 16 * CHUNK  # one block of complex values
# Lengths around multiples of SPAN straddle block boundaries at every block size
# that divides it: every power of two up to 2^16, _ExactSum's limit.
SPAN = 1 << 16


def _normalize_reference(values, norms, norm_f_sq, vol):
    """_normalize over whole arrays. Reference only."""
    keep = norms > 1.0
    w = stats.tilde_factor(norm_f_sq, vol) * values[keep] / np.sqrt(np.log(norms[keep]))
    return w.real, w.imag, int(len(norms) - keep.sum())


def _moments_reference(x, y, n_max, m_max):
    """symbol_moments' pairs of x + iy over whole power arrays, math.fsum for the sums. Reference only."""
    xp = [np.ones_like(x), *stats._power_chain(x, n_max)]
    yp = [np.ones_like(y), *stats._power_chain(y, m_max)]
    return {(i, j): math.fsum(xp[i] * yp[j]) / len(x) for i in range(n_max + 1) for j in range(m_max + 1)}


def _histogram_reference(values, bin_count, value_range):
    """_histogram with one np.histogram over the whole array. Reference only."""
    v = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(v, bins=bin_count, range=value_range)
    return [
        (float(edges[k]), float(edges[k + 1]), int(counts[k]),
         float(len(v) * (normal_cdf(edges[k + 1]) - normal_cdf(edges[k]))))
        for k in range(bin_count)
    ]


def _ks_reference(values):
    """ks_distance with one whole-array erf pass. Reference only."""
    v = np.sort(values)
    n = len(v)
    cdf = stats._normal_cdf_values(v)
    i = np.arange(1, n + 1)
    return float(max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf)))


@pytest.mark.parametrize("n", [SPAN - 1, SPAN, SPAN + 1, 3 * SPAN + 5])
def test_blocked_stats_match_full_arrays(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norms = rng.uniform(0.5, 1e6, n)
    norms[CHUNK : 2 * CHUNK] = 0.75  # the second block is dropped whole
    got = _normalize(values, norms, 0.05, VOL11)
    want = _normalize_reference(values, norms, 0.05, VOL11)
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype == np.float64 and g.tobytes() == w.tobytes()
    x, y = got[:2]
    want = {k: v.hex() for k, v in _moments_reference(x, y, 4, 4).items()}
    assert {k: v.hex() for k, v in _moments(x, y, 4, 4).items()} == want
    assert ks_distance(x).hex() == _ks_reference(x).hex()
    assert stats._ks_sorted(np.sort(x)).hex() == _ks_reference(x).hex()
    # read as a symbol source, block by block with the drops inside the blocks
    source = _one_group(values, norms)
    assert {k: v.hex() for k, v in symbol_moments(source, 0.05, VOL11, 4, 4).pairs.items()} == want
    for part, v in (("re", x), ("im", y)):
        rows = _histogram_reference(v, 40, (-4, 4))
        assert _histogram(v, 40, (-4, 4)) == rows
        assert symbol_histogram(source, 0.05, VOL11, part, 40, (-4, 4)) == rows
    # every sample dropped: empty outputs, and no moments
    x, y, dropped = _normalize(values, np.full(n, 0.75), 0.05, VOL11)
    assert (len(x), len(y), dropped) == (0, 0, n)
    with pytest.raises(ValueError):
        _moments(x, y, 4, 4)
    source = _one_group(values, np.full(n, 0.75))
    with pytest.raises(ValueError, match=re.escape(NO_SAMPLES)):
        symbol_moments(source, 0.05, VOL11, 4, 4)
    with pytest.raises(ValueError, match=re.escape(NO_SAMPLES)):
        symbol_histogram(source, 0.05, VOL11, "re", 40, (-4, 4))


def test_normalize_non_finite_in_a_later_block():
    values = np.ones(CHUNK + 10, dtype=complex)
    values[CHUNK + 5] = complex(math.nan, 0)
    with pytest.raises(ValueError, match="non-finite"):
        _normalize(values, np.full(len(values), 10.0), 0.05, VOL11)
    with pytest.raises(ValueError, match="non-finite"):
        symbol_moments(_one_group(values, np.full(len(values), 10.0)), 0.05, VOL11, 2, 2)


def test_blocked_stats_peak_memory(batch11_1e7, traced_peak, fixed_bytes):
    # the normalization holds a few blocks, and no full-length mask; the
    # moments hold a block's powers and the bins of their 25 sums only, and
    # read from the batch itself they hold no sample array either
    b = batch11_1e7
    peak, kept = traced_peak(lambda: sum(len(v) for v in stats._normalized(b.blocks(), 0.05, VOL11)))
    assert kept == len(b.norms) and peak <= 4 * BLOCK_BYTES, peak
    x, y, _ = _normalize_reference(b.values, b.norms, 0.05, VOL11)
    peak, _ = traced_peak(lambda: _moments(x, y, 4, 4))
    assert peak <= 12 * BLOCK_BYTES + fixed_bytes(25), peak
    peak, _ = traced_peak(lambda: symbol_moments(b, 0.05, VOL11, 4, 4))
    assert peak <= 12 * BLOCK_BYTES + fixed_bytes(25), peak
    peak, _ = traced_peak(lambda: symbol_histogram(b, 0.05, VOL11, "im", 40, (-4, 4)))
    assert peak <= 6 * BLOCK_BYTES, peak


@pytest.mark.parametrize("threads", [1, 4])
def test_stream_moments_and_histogram_are_the_batch_ones(table11, threads):
    # 79,591 symbols: two blocks, with a c group across the boundary between them
    batch = symbols_up_to(table11, 11, 10 ** 6, z=1j, tol=1e-10, threads=threads)
    stream = symbol_stream(table11, 11, 10 ** 6, z=1j, tol=1e-10, threads=threads)
    ends = np.cumsum(batch.group_counts)
    assert len(batch.norms) > CHUNK and np.any((ends - batch.group_counts) // CHUNK != (ends - 1) // CHUNK)
    x, y, _ = _normalize_reference(batch.values, batch.norms, 0.05, VOL11)
    want = {k: v.hex() for k, v in _moments_reference(x, y, 4, 4).items()}
    for source in (batch, stream):
        assert {k: v.hex() for k, v in symbol_moments(source, 0.05, VOL11, 4, 4).pairs.items()} == want
        for part, v in (("re", x), ("im", y)):
            rows = _histogram_reference(v, 40, (-4, 4))
            assert symbol_histogram(source, 0.05, VOL11, part, 40, (-4, 4)) == rows
