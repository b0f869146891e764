"""Coset enumeration, volume, and lift tests."""

import math

import numpy as np
import pytest

from modsymdist import cosets
from modsymdist.cosets import (
    GammaMatrix,
    _group_sizes,
    _prime_factors,
    _unit_mask,
    coset_arrays,
    coset_count,
    lift,
    volume,
)


def _all_cosets(N, T, z=1j):
    """Every coset (c, d, norm) with norm <= T: the implied identity, then coset_arrays' rows.

    Each row goes through lift, which refuses a non-canonical or non-coprime one.
    """
    out = [(0, 1, 1.0)]
    for c, ds, norms in coset_arrays(N, T, z):
        out += [(c, d, nrm) for d, nrm in zip(ds.tolist(), norms.tolist())]
    for c, d, _ in out:
        lift(c, d)
    return out


def _coset_arrays_gcd(N, T, z):
    """coset_arrays with coprimality by np.gcd, as before the unit mask. Reference only."""
    x, y = z.real, z.imag
    c = N
    while (c * y) ** 2 <= T:
        half = math.sqrt(max(T - (c * y) ** 2, 0.0))
        lo = math.floor(-c * x - half) - 1
        hi = math.ceil(-c * x + half) + 1
        ds = np.arange(lo, hi + 1, dtype=np.int64)
        norms = (c * x + ds) ** 2 + (c * y) ** 2
        keep = (norms <= T) & (np.gcd(ds % c, c) == 1)
        if np.any(keep):
            yield c, ds[keep], norms[keep]
        c += N


def _volume_trial_division(N):
    """volume with its own trial-division loop, as before _prime_factors. Reference only."""
    index = m = N
    p = 2
    while p * p <= m:
        if m % p == 0:
            index = index // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        index = index // m * (m + 1)
    return (math.pi / 3) * index


@pytest.mark.parametrize(
    "N, T, z",
    [
        (11, 10 ** 6, 1j),
        (11, 10 ** 5, 0.25 + 0.9j),
        (37, 10 ** 6, 1j),
        (37, 10 ** 6, 0.25 + 0.9j),
        (14, 10 ** 6, 1j),  # composite N; c = 56, 252, ... repeat small primes
        (43, 10 ** 5, -0.3 + 1.7j),
        (11, 33 ** 2 + 4 ** 2, 1j),  # T is the norm of the coset (33, 4)
    ],
)
def test_coset_arrays_match_gcd_reference(N, T, z):
    got = list(coset_arrays(N, T, z))
    want = list(_coset_arrays_gcd(N, T, z))
    assert len(got) == len(want)
    for (c, ds, norms), (c0, ds0, norms0) in zip(got, want):
        assert c == c0
        assert ds.tobytes() == ds0.tobytes() and norms.tobytes() == norms0.tobytes(), c


def test_coset_on_the_norm_bound_is_kept():
    T = 33 ** 2 + 4 ** 2
    assert (33, 4, float(T)) in _all_cosets(11, T, 1j)


def test_volume_matches_trial_division_reference():
    for N in range(1, 501):
        assert volume(N) == _volume_trial_division(N), N


def test_prime_factors_and_unit_mask():
    for c in range(1, 2001):
        factors = _prime_factors(c)
        assert math.prod(p ** e for p, e in factors) == c
        assert all(e >= 1 and all(p % q for q in range(2, math.isqrt(p) + 1)) for p, e in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert _unit_mask(c).tolist() == [math.gcd(r, c) == 1 for r in range(c)], c


def test_volume_values():
    assert volume(1) == pytest.approx(math.pi / 3, rel=1e-15)
    assert volume(11) == pytest.approx(4 * math.pi, rel=1e-15)  # index 12
    assert volume(12) == pytest.approx((math.pi / 3) * 24, rel=1e-15)  # 12*(3/2)*(4/3)


def test_volume_n1_vs_quadrature_oracle():
    # area of the classical fundamental domain: Int dx dy / y^2 = Int dx/sqrt(1-x^2)
    from scipy.integrate import quad

    val, _ = quad(lambda x: 1.0 / math.sqrt(1 - x * x), -0.5, 0.5)
    assert volume(1) == pytest.approx(val, rel=1e-10)


def test_volume_rejects_bad_level():
    with pytest.raises(ValueError):
        volume(0)


def test_enumerate_t1_identity_only():
    assert _all_cosets(11, 1, 1j) == [(0, 1, 1.0)]


def test_enumerate_t122_hand_enumeration():
    assert _all_cosets(11, 122, 1j) == [(0, 1, 1.0), (11, -1, 122.0), (11, 1, 122.0)]


def test_enumerate_exhaustive_properties():
    # gcd = 1, 11 | c, no duplicates, all and only pairs with c^2+d^2 <= T
    T = 10 ** 4
    seen = set()
    for c, d, norm in _all_cosets(11, T, 1j):
        assert math.gcd(c, d) == 1
        assert c % 11 == 0
        assert norm <= T
        assert (c, d) not in seen
        seen.add((c, d))
    brute = {(0, 1)}
    for c in range(11, int(math.isqrt(T)) + 1, 11):
        for d in range(-int(math.isqrt(T - c * c)), int(math.isqrt(T - c * c)) + 1):
            if c * c + d * d <= T and math.gcd(c, d) == 1:
                brute.add((c, d))
    assert seen == brute


def test_enumerate_mirror_symmetry_at_i():
    T = 5000
    seen = {(c, d) for c, d, _ in _all_cosets(11, T, 1j)}
    for c, d in seen:
        if c > 0:
            assert (c, -d) in seen


def test_enumerate_general_z_rechecks_norm():
    z = 0.3 + 0.7j
    for c, d, _ in _all_cosets(11, 500, z):
        if c:
            assert abs(c * z + d) ** 2 <= 500 * (1 + 1e-12)


def test_counting_lemma_ratio():
    # count(T) * vol * Im(z) / T -> 1, and closer at larger T
    vol = volume(11)
    r4 = coset_count(11, 10 ** 4, 1j) * vol / 10 ** 4
    r6 = coset_count(11, 10 ** 6, 1j) * vol / 10 ** 6
    assert abs(r6 - 1) < abs(r4 - 1) < 0.01


def test_counting_lemma_other_z():
    z = 0.25 + 2j
    vol = volume(11)
    ratio = coset_count(11, 10 ** 6, z) * vol * z.imag / 10 ** 6
    assert abs(ratio - 1) < 0.01


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        list(coset_arrays(11, 0.5, 1j))
    with pytest.raises(ValueError):
        list(coset_arrays(11, 100, 1 - 1j))
    for N in (0, -11):  # N = 0 would never leave the c loop
        with pytest.raises(ValueError, match="N must be"):
            list(coset_arrays(N, 100, 1j))


def test_lift_examples():
    assert lift(0, 1) == GammaMatrix(1, 0, 0, 1)
    assert lift(11, 1) == GammaMatrix(1, 0, 11, 1)
    assert lift(11, 4) == GammaMatrix(3, 1, 11, 4)


def test_lift_roundtrip_and_canonical():
    for c, d, _ in _all_cosets(11, 4000, 1j):
        m = lift(c, d)
        assert m.a * m.d - m.b * m.c == 1
        assert (m.c, m.d) == (c, d)
        if c:
            assert 0 <= m.a < c


def test_gamma_matrix_validation():
    with pytest.raises(ValueError):
        GammaMatrix(1, 1, 1, 1)
    g = GammaMatrix(3, 1, 11, 4)
    assert g @ g.inverse() == GammaMatrix(1, 0, 0, 1)


def test_coset_validation():
    with pytest.raises(ValueError):
        lift(-11, 1)
    with pytest.raises(ValueError):
        lift(11, 22)


def test_coset_arrays_matches_stream():
    total = sum(len(ds) for _, ds, _ in coset_arrays(11, 3000, 1j))
    assert total + 1 == coset_count(11, 3000, 1j)


@pytest.mark.parametrize(
    "N, T, z",
    [
        (11, 10 ** 7, 1j),
        (37, 10 ** 6, 0.25 + 0.9j),  # general z: the norms are not integers
        (14, 10 ** 6, 1j),
        (11, 100, 1j),  # no coset has norm <= 100 at level 11
    ],
)
def test_group_sizes_are_coset_arrays_group_lengths(N, T, z):
    assert list(_group_sizes(N, T, z)) == [(c, len(ds)) for c, ds, _ in coset_arrays(N, T, z)]


def test_coset_count_builds_no_arrays(monkeypatch):
    want = coset_count(11, 10 ** 6, 0.25 + 0.9j), coset_count(11, 10 ** 4)
    monkeypatch.setattr(cosets, "_candidates", lambda *args: pytest.fail("built a candidate range"))
    assert (coset_count(11, 10 ** 6, 0.25 + 0.9j), coset_count(11, 10 ** 4)) == want
