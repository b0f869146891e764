"""Coefficient and period-lattice tests, with independent oracles."""

import math
import random

import numpy as np
import pytest

from modsymdist import curve as curve_mod
from modsymdist.curve import (
    CoefficientTable,
    CurveSpec,
    agm_periods,
    DIVISOR_BOUND_START,
    ap_count,
    certified_tail_constant,
    coefficient_table,
    eta_deep_table_level11,
    eta_fft_length,
    hecke_expand,
    lattice_distance,
    resolve_curve,
)

# Period values pinned by an independent mpmath oracle (30-digit quadrature of
# dx/sqrt(4x^3+b2x^2+2b4x+b6) plus Eisenstein-series recovery of g2, g3).
OMEGA1_11A = 1.2692093042795534
OMEGA2_11A = 0.6346046521397767 + 1.4588166169384952j
AREA_11A = 1.8515436234559593
OMEGA1_37A = 2.9934586462319596
OMEGA2_37A = 2.4513893819867901j


def count_points_naive(curve, p):
    """Brute-force projective point count over F_p. For verification only."""
    cnt = 1  # point at infinity
    for x in range(p):
        for y in range(p):
            lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
            rhs = (x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
            if lhs == rhs:
                cnt += 1
    return cnt


def test_ap_good_primes_vs_naive_count(curve11):
    for p in (2, 3, 5, 7, 13, 17, 19):
        assert ap_count(curve11, p) == p + 1 - count_points_naive(curve11, p)
    assert ap_count(curve11, 19) == 0  # #E(F_19) = 20 = p + 1


def test_ap_11a_p2_exhaustive(curve11):
    # derived by exhaustive count over F_2: 5 projective points
    assert count_points_naive(curve11, 2) == 5
    assert ap_count(curve11, 2) == -2


def test_ap_bad_prime_split_multiplicative(curve11):
    # smooth-point count at the bad prime 11: split multiplicative, a_11 = +1
    assert ap_count(curve11, 11) == 1


def test_ap_37a_bad_prime(curve37):
    assert ap_count(curve37, 37) in (-1, 1)
    assert ap_count(curve37, 37) == -1  # 37a has non-split reduction at 37


def test_ap_rejects_bad_input(curve11):
    with pytest.raises(ValueError):
        ap_count(curve11, 15)
    with pytest.raises(ValueError):
        ap_count(curve11, 10 ** 6 + 3)


def test_hasse_bound(table11, curve11):
    for p in curve_mod.sieve_primes(2000):
        if curve11.N % int(p):
            assert abs(table11.a[p]) <= 2 * math.sqrt(p)


def test_hecke_recursion_a4(curve11):
    # a_4 = a_2^2 - 2 = (-2)^2 - 2 = 2, with a_2 from the point-count oracle
    t = coefficient_table(curve11, 10)
    assert t.a[2] == -2
    assert t.a[4] == t.a[2] ** 2 - 2 == 2
    assert t.a[6] == t.a[2] * t.a[3]
    assert t.a[1] == 1


def test_multiplicativity_random_coprime_pairs(table11):
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        m = rng.randint(2, 170)
        n = rng.randint(2, 170)
        if math.gcd(m, n) != 1 or m * n > table11.n_max:
            continue
        assert table11.a[m * n] == table11.a[m] * table11.a[n]
        checked += 1


def test_bad_prime_powers(table11):
    # a_{11^r} = a_11^r = 1
    assert table11.a[11] == 1
    assert table11.a[121] == 1
    assert table11.a[1331] == 1


def test_tail_constant_bound(table11, table37):
    for t in (table11, table37):
        n = np.arange(1, t.n_max + 1)
        assert np.all(np.abs(t.a[1:]) <= t.tail_constant * n)
        assert t.tail_constant <= 2.0  # shipped presets


def test_divisor_bounds_behind_certified_tail():
    # the two divisor-function facts CoefficientTable's tail argument rests on
    n_top = 10 ** 5
    d = np.zeros(n_top + 1, dtype=np.int64)
    for k in range(1, n_top + 1):
        d[k::k] += 1
    n = np.arange(1, n_top + 1)
    ratio = d[1:] / np.sqrt(n)
    assert int(n[np.argmax(ratio)]) == 12 and float(ratio.max()) == pytest.approx(math.sqrt(3))
    assert int(n[ratio >= 1].max()) == DIVISOR_BOUND_START


def test_short_table_tail_constant_is_deligne_bound(curve11):
    # 10 terms cannot see |a_n|/n beyond n = 10, so the Deligne bound sqrt(3) applies
    ap = {p: ap_count(curve11, p) for p in (2, 3, 5, 7)}
    short = hecke_expand(ap, set(), 10)
    assert short.tail_constant == math.sqrt(3)
    assert 1.1 * float(np.max(np.abs(short.a[1:]) / np.arange(1, 11))) < math.sqrt(3)


def test_tail_constant_switches_at_divisor_bound_start(table11):
    assert certified_tail_constant(table11.a[:DIVISOR_BOUND_START]) == math.sqrt(3)
    assert certified_tail_constant(table11.a[: DIVISOR_BOUND_START + 1]) == 1.1


def test_long_table_tail_constant_unchanged(table11):
    # n_max >= 1260: still 1.1 times the measured max |a_n|/n (1, at n = 1 and 2)
    n = np.arange(1, table11.n_max + 1)
    assert table11.tail_constant == 1.1 * float(np.max(np.abs(table11.a[1:]) / n)) == 1.1


def test_hecke_expand_missing_prime_named():
    with pytest.raises(ValueError, match="a_3"):
        hecke_expand({2: -2}, set(), 5)


def test_table_invariant_validation():
    a = np.zeros(4)
    a[1] = 2.0  # violates a_1 = 1
    with pytest.raises(ValueError):
        CoefficientTable(n_max=3, a=a, tail_constant=5.0)


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(0, 0, 0, 0, 0, 11)  # singular
    with pytest.raises(ValueError):
        CurveSpec(0, -1, 1, -10, -20, 5)  # conductor too small
    assert resolve_curve("0,-1,1,-10,-20,11") == resolve_curve("11a")
    with pytest.raises(ValueError):
        resolve_curve("not-a-curve")


def test_agm_periods_11a_vs_oracle():
    lat = agm_periods("11a")
    assert abs(lat.omega1 - OMEGA1_11A) < 1e-12
    assert abs(lat.omega2 - OMEGA2_11A) < 1e-12
    assert abs(lat.area - AREA_11A) < 1e-12
    # area recomputed independently
    area2 = abs((np.conj(lat.omega1) * lat.omega2).imag)
    assert abs(area2 - lat.area) < 1e-12


def test_agm_periods_37a_vs_oracle():
    lat = agm_periods("37a")
    assert abs(lat.omega1 - OMEGA1_37A) < 1e-12
    assert abs(lat.omega2 - OMEGA2_37A) < 1e-12


def test_agm_quadrature_oracle_11a():
    # independent quadrature of the real period: 2 * Int_{e1}^{inf} dx/sqrt(g)
    from scipy.integrate import quad

    crv = resolve_curve("11a")
    b2, b4, b6, _ = crv.b_invariants()
    roots = np.roots([4.0, b2, 2.0 * b4, b6])
    e1 = max(r.real for r in roots if abs(r.imag) < 1e-9)

    def head(t):
        # x = e1 + t^2 removes the sqrt singularity; abs() guards the float
        # root's ~1e-9 slack right at the endpoint
        x = e1 + t * t
        return 2.0 * t / math.sqrt(abs(4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6))

    def tail(w):
        # w = x^{-1/2} turns the tail into a proper integral
        return 1.0 / math.sqrt(1 + (b2 / 4) * w ** 2 + (b4 / 2) * w ** 4 + (b6 / 4) * w ** 6)

    T0 = 60.0
    x0 = e1 + T0 * T0
    v1, _ = quad(head, 0, T0, limit=400)
    v2, _ = quad(tail, 0, 1 / math.sqrt(x0), limit=100)
    assert abs(2 * (v1 + v2) - OMEGA1_11A) < 1e-8


def test_period_lattice_invariants(lattice11):
    assert (lattice11.omega2 / lattice11.omega1).imag > 0
    assert lattice11.omega1.real > 0
    assert lattice11.area > 0


def test_rescaling_identity_transform(lattice11):
    # u = 1 identity transform leaves the area unchanged
    lat2 = agm_periods("11a")
    assert lat2.area == pytest.approx(lattice11.area, abs=0)


def test_agm_nonconvergence_raises():
    from modsymdist.curve import _agm

    with pytest.raises(ArithmeticError):
        _agm(1.0, 1e9, precision=1e-15, cap=2)  # cap reached first


def test_eta_deep_table_matches_hecke(table11):
    deep = eta_deep_table_level11(30000)
    assert np.array_equal(deep.a, table11.a)
    assert deep.tail_constant <= 2.0


def test_eta_fft_length_is_power_of_two_cover():
    assert [eta_fft_length(n) for n in (1, 2, 3, 4, 5)] == [2, 4, 8, 8, 16]
    assert eta_fft_length(1 << 23) == 1 << 24
    assert eta_fft_length((1 << 23) + 1) == 1 << 25


def test_lattice_distance_zero_for_lattice_points(lattice11):
    pts = [0, lattice11.omega1, lattice11.omega2, 3 * lattice11.omega1 - 2 * lattice11.omega2]
    d = lattice_distance(np.array(pts), lattice11)
    assert np.max(d) < 1e-12
