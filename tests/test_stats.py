"""Normalization, moments, KS distance, and histogram tests."""

import math
import random

import numpy as np
import pytest

from modsymdist import series, stats
from modsymdist.cosets import volume
from modsymdist.stats import (
    gaussian_moment,
    histogram,
    ks_distance,
    moments_from_arrays,
    normal_cdf,
    normalize_arrays,
)

VOL11 = 4 * math.pi


def test_normalize_drops_identity(batch11_1e4):
    # the batch implies the identity coset (symbol 0, norm 1); put it back in front
    values = np.concatenate([[0j], batch11_1e4.values])
    norms = np.concatenate([[1.0], batch11_1e4.norms])
    x, y, dropped = normalize_arrays(values, norms, 0.0469, VOL11)
    kept = norms[norms > 1]
    assert dropped == 1  # only the identity coset has norm <= 1 at z = i
    assert len(x) == len(y) == len(kept) == len(values) - 1


def test_normalize_zero_and_scaling():
    vals = np.array([0j, 1 + 1j])
    nrms = np.array([100.0, 100.0])
    x1, y1, _ = normalize_arrays(vals, nrms, 1.0, VOL11)
    assert x1[0] == 0 and y1[0] == 0
    x2, y2, _ = normalize_arrays(vals, nrms, 4.0, VOL11)  # 4x norm -> halves
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
    rep = moments_from_arrays(x, y, 4, 4)
    assert rep.pairs[(0, 0)] == 1.0
    perm = rng.permutation(4000)
    rep2 = moments_from_arrays(x[perm], y[perm], 4, 4)
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
    rep = moments_from_arrays(x, x[::-1], 4, 0)
    assert rep.pairs[(4, 0)] == math.fsum(((x * x) * x) * x) / len(x)


def test_moments_empty_stream_rejected():
    with pytest.raises(ValueError):
        moments_from_arrays(np.zeros(0), np.zeros(0), 2, 2)
    x, y, _ = normalize_arrays([0j], [1.0], 0.0469, VOL11)  # the identity alone
    with pytest.raises(ValueError):
        moments_from_arrays(x, y, 2, 2)


def test_moments_match_gaussian_on_synthetic():
    rng = np.random.default_rng(11)
    n = 200000
    rep = moments_from_arrays(rng.normal(size=n), rng.normal(size=n), 4, 4)
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
    rows = histogram(v, 1, (-1e9, 1e9))
    assert rows[0][2] == 500
    assert rows[0][3] == pytest.approx(500.0, abs=1e-6)


def test_histogram_symmetric_masses():
    v = np.random.default_rng(2).normal(size=1000)
    rows = histogram(v, 8, (-4, 4))
    for k in range(4):
        assert rows[k][3] == pytest.approx(rows[7 - k][3], rel=1e-9)
    assert sum(r[2] for r in rows) <= 1000
    total_mass = sum(r[3] for r in rows)
    assert total_mass == pytest.approx(1000 * (normal_cdf(4) - normal_cdf(-4)), rel=1e-12)


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram(np.zeros(3), 0, (-1, 1))
    with pytest.raises(ValueError):
        histogram(np.zeros(3), 4, (1, -1))


def test_normalized_sample_validation():
    x, y, dropped = normalize_arrays([0j], [1.0], 1.0, VOL11)
    assert len(x) == len(y) == 0 and dropped == 1  # norm must exceed 1
    for bad in (complex(math.nan, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_arrays([bad], [2.0], 1.0, VOL11)


# ---------------------------------------------------------------------------
# Block pipeline against the full-array code it replaced
# ---------------------------------------------------------------------------

CHUNK = series._SUM_CHUNK
BLOCK_BYTES = 16 * CHUNK  # one block of complex values


def _normalize_reference(values, norms, norm_f_sq, vol):
    """normalize_arrays over whole arrays. Reference only."""
    keep = norms > 1.0
    w = stats.tilde_factor(norm_f_sq, vol) * values[keep] / np.sqrt(np.log(norms[keep]))
    return w.real, w.imag, int(len(norms) - keep.sum())


def _moments_reference(x, y, n_max, m_max):
    """moments_from_arrays' pairs over whole power arrays, math.fsum for the sums. Reference only."""
    xp = [np.ones_like(x), *stats._power_chain(x, n_max)]
    yp = [np.ones_like(y), *stats._power_chain(y, m_max)]
    return {(i, j): math.fsum(xp[i] * yp[j]) / len(x) for i in range(n_max + 1) for j in range(m_max + 1)}


def _ks_reference(values):
    """ks_distance with one whole-array erf pass. Reference only."""
    v = np.sort(values)
    n = len(v)
    cdf = stats._normal_cdf_values(v)
    i = np.arange(1, n + 1)
    return float(max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf)))


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_blocked_stats_match_full_arrays(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norms = rng.uniform(0.5, 1e6, n)
    norms[CHUNK : 2 * CHUNK] = 0.75  # the second block is dropped whole
    got = normalize_arrays(values, norms, 0.05, VOL11)
    want = _normalize_reference(values, norms, 0.05, VOL11)
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype == np.float64 and g.tobytes() == w.tobytes()
    x, y = got[:2]
    pairs = moments_from_arrays(x, y, 4, 4).pairs
    assert {k: v.hex() for k, v in pairs.items()} == {
        k: v.hex() for k, v in _moments_reference(x, y, 4, 4).items()
    }
    assert ks_distance(x).hex() == _ks_reference(x).hex()
    # every sample dropped: empty outputs, and no moments
    x, y, dropped = normalize_arrays(values, np.full(n, 0.75), 0.05, VOL11)
    assert (len(x), len(y), dropped) == (0, 0, n)
    with pytest.raises(ValueError):
        moments_from_arrays(x, y, 4, 4)


def test_normalize_non_finite_in_a_later_block():
    values = np.ones(CHUNK + 10, dtype=complex)
    values[CHUNK + 5] = complex(math.nan, 0)
    for out in (None, values):  # in place too
        with pytest.raises(ValueError, match="non-finite"):
            normalize_arrays(values, np.full(len(values), 10.0), 0.05, VOL11, out=out)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5])
def test_normalize_in_place_matches_a_new_output(n):
    # drops mid-block and on both sides of each block boundary; out=values reads every
    # block before any write reaches it, so both outputs hold the same bits
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norms = rng.uniform(2.0, 1e6, n)
    for b in range(0, n + 2, CHUNK):
        norms[max(0, b - 2) : b + 2] = 0.75
    norms[CHUNK // 2 : CHUNK // 2 + 100] = 1.0
    x, y, dropped = normalize_arrays(values, norms, 0.05, VOL11)
    own = values.copy()
    xi, yi, dropped_i = normalize_arrays(own, norms, 0.05, VOL11, out=own)
    assert dropped_i == dropped == np.count_nonzero(norms <= 1)
    assert np.shares_memory(xi, own) and np.shares_memory(yi, own)
    for g, w in ((xi, x), (yi, y)):
        assert g.dtype == w.dtype == np.float64 and g.tobytes() == w.tobytes()
    # past the kept samples, out keeps what it held
    assert own[len(x) :].tobytes() == values[len(x) :].tobytes()


def test_moments_length_mismatch_rejected():
    with pytest.raises(ValueError, match="same length"):
        moments_from_arrays(np.ones(CHUNK + 1), np.ones(1), 2, 2)


def test_blocked_stats_peak_memory(batch11_1e7, traced_peak):
    # beyond its output (16 bytes a kept sample) and the keep mask, the
    # normalization holds a few blocks; in place it holds no output at all;
    # the moments hold a block's powers only
    b = batch11_1e7
    peak, (x, y, _) = traced_peak(lambda: normalize_arrays(b.values, b.norms, 0.05, VOL11))
    assert peak <= 16 * len(x) + len(b.norms) + 4 * BLOCK_BYTES, peak
    own = b.values.copy()
    peak, _ = traced_peak(lambda: normalize_arrays(own, b.norms, 0.05, VOL11, out=own))
    assert peak <= len(b.norms) + 4 * BLOCK_BYTES, peak
    peak, _ = traced_peak(lambda: moments_from_arrays(x, y, 4, 4))
    assert peak <= 12 * BLOCK_BYTES, peak
