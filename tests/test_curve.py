"""Coefficient and period-lattice tests, with independent oracles."""

import functools
import math
import random

import numpy as np
import pytest

from modsymdist import curve as curve_mod
from modsymdist.curve import (
    AP_PRIME_BOUND,
    CoefficientTable,
    CountScratch,
    CurveSpec,
    PRESETS,
    agm_periods,
    DIVISOR_BOUND_START,
    ap_count,
    certified_tail_constant,
    coefficient_table,
    eta_deep_table_level11,
    lattice_distance,
    max_ratio,
    resolve_curve,
)
from modsymdist.series import _SUM_CHUNK

# Period values pinned by an independent mpmath oracle (30-digit quadrature of
# dx/sqrt(4x^3+b2x^2+2b4x+b6) plus Eisenstein-series recovery of g2, g3).
OMEGA1_11A = 1.2692093042795534
OMEGA2_11A = 0.6346046521397767 + 1.4588166169384952j
AREA_11A = 1.8515436234559593
OMEGA1_37A = 2.9934586462319596
OMEGA2_37A = 2.4513893819867901j


def count_points_naive(curve, p):
    """Brute-force projective point count over F_p. For verification only.

    Tests the Weierstrass equation itself at every (x, y) in F_p^2, with the
    coefficients reduced mod p; no b-invariants, no completed square.
    """
    a1, a2, a3, a4, a6 = (c % p for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    x = np.arange(p, dtype=np.int64)[:, None]
    y = np.arange(p, dtype=np.int64)[None, :]
    lhs = (y * y + a1 * x * y + a3 * y) % p
    rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
    return 1 + int(np.count_nonzero(lhs == rhs))  # 1: the point at infinity


# Models beyond the presets: 14a (composite level, multiplicative at 2 and 7),
# 43a and 389a (ranks 1 and 2), and three with additive primes, 27a (3),
# 36a (2 and 3) and 20a (2).
CURVE_14A = "1,0,1,4,-6,14"
CURVE_27A = "0,0,1,0,-7,27"
CURVE_36A = "0,0,0,0,1,36"
CURVE_20A = "0,1,0,4,4,20"
CURVE_43A = "0,1,1,0,0,43"
CURVE_389A = "0,1,1,-2,0,389"
CURVE_50A = "1,0,1,-1,-2,50"


def hecke_expand_reference(curve, n_max):
    """a_1..a_n_max one n at a time via its smallest prime. For verification only.

    n = p^k m with p the smallest prime of n and p not dividing m: a_n = a_m a_{p^k}
    if m > 1, else a_{p^k} = a_p a_{p^{k-1}} - chi(p) p a_{p^{k-2}}.
    """
    curve = resolve_curve(curve)
    a = np.zeros(n_max + 1, dtype=np.float64)
    a[1] = 1.0
    spf = np.zeros(n_max + 1, dtype=np.int64)
    for p in curve_mod.sieve_primes(n_max):
        sl = spf[p::p]
        sl[sl == 0] = p
    for n in range(2, n_max + 1):
        p = int(spf[n])
        m = n
        while m % p == 0:
            m //= p
        if m > 1:
            a[n] = a[m] * a[n // m]
        else:
            chi = 0 if curve.N % p == 0 else 1
            a[n] = ap_count(curve, p) * a[n // p] - chi * p * a[n // (p * p)]
    return a


def ap_count_reference(curve, p):
    """Odd-p a_p with fresh arrays and D reduced mod p twice. For verification only.

    Every intermediate stays below 5 p^2, so this needs no overflow argument
    at all; ap_count's single reduction must give the same a_p.
    """
    b2, b4, b6, _ = curve.b_invariants()
    x = np.arange(p, dtype=np.int64)
    D = x * 4
    D += b2 % p
    D *= x
    D += 2 * b4 % p
    D %= p
    D *= x
    D += b6 % p
    D %= p
    h = np.arange((p + 1) // 2, dtype=np.int64)
    h *= h
    h %= p
    chi = np.full(p, -1, dtype=np.int8)
    chi[h] = 1
    chi[0] = 0
    return -int(chi[D].sum())


def test_ap_good_primes_vs_naive_count(curve11):
    # one rule at every prime, bad primes included: a_p = p + 1 - #E~(F_p)
    specs = ("11a", "37a", CURVE_14A, CURVE_43A, CURVE_389A, CURVE_27A, CURVE_36A, CURVE_20A)
    for spec in specs:
        crv = resolve_curve(spec)
        for p in curve_mod.sieve_primes(400).tolist():
            assert ap_count(crv, p) == p + 1 - count_points_naive(crv, p), (spec, p)
    assert ap_count(curve11, 19) == 0  # #E(F_19) = 20 = p + 1


@pytest.mark.parametrize(
    "spec, sum_ap, sum_p_ap",
    [
        ("37a", -4096, -88159106),
        (CURVE_14A, 1584, 22129705),
        (CURVE_43A, -5225, -122174157),
        (CURVE_389A, -6440, -110715054),
    ],
)
def test_ap_fingerprint_to_30000(spec, sum_ap, sum_p_ap):
    # sum a_p and sum p a_p over p <= 3*10^4, pinned from a count that tested
    # D(x) for a square pointwise rather than summing its character
    crv = resolve_curve(spec)
    primes = curve_mod.sieve_primes(30000).tolist()
    ap = [ap_count(crv, p) for p in primes]
    assert (sum(ap), sum(p * a for p, a in zip(primes, ap))) == (sum_ap, sum_p_ap)


def _shifted_11a(r):
    """11a under x -> x + r: the same curve, with coefficients of size r^3."""
    return CurveSpec(0, 3 * r - 1, 1, 3 * r * r - 2 * r - 10, r ** 3 - r * r - 10 * r - 20, 11)


@pytest.mark.parametrize("r", [2 * 10 ** 6, 3 * 10 ** 6])
def test_ap_large_model_coefficients_exact(curve11, r):
    # |a6| ~ 8e18 and 2.7e19 > 2^63: products of the raw coefficients overflow
    # int64, so they must be reduced mod p before any array arithmetic
    crv = _shifted_11a(r)
    assert abs(crv.a6) > 10 ** 18
    for p in curve_mod.sieve_primes(100).tolist():
        assert ap_count(crv, p) == ap_count(curve11, p), p
    assert ap_count(crv, 999983) == ap_count(curve11, 999983) == 1194


def test_single_reduction_cannot_overflow():
    # D = ((4x + b2) x + 2 b4) x + b6 < 5 p^3 is reduced once, in int64
    assert 5 * AP_PRIME_BOUND ** 3 < 2 ** 63


@pytest.mark.parametrize("spec", ["11a", "37a", CURVE_14A, CURVE_43A, CURVE_389A])
def test_ap_matches_two_reduction_reference(spec):
    crv = resolve_curve(spec)
    for p in curve_mod.sieve_primes(5000).tolist()[1:]:
        assert ap_count(crv, p) == ap_count_reference(crv, p), (spec, p)


@pytest.mark.parametrize("crv", [PRESETS["11a"], _shifted_11a(3 * 10 ** 6)], ids=["11a", "11a+3e6"])
def test_ap_matches_reference_where_D_nears_5p3(crv):
    # the five largest primes under the bound, where D reaches ~5 * 10^18
    top = [999983, 999979, 999961, 999959, 999953]
    assert [ap_count(crv, p) for p in top] == [ap_count_reference(crv, p) for p in top]


@pytest.mark.parametrize("spec", ["11a", "37a", CURVE_389A])
def test_one_scratch_reused_matches_fresh(spec):
    # large primes before small: stale entries past p must never be read
    crv = resolve_curve(spec)
    primes = curve_mod.sieve_primes(3000).tolist() + [29989, 39989]
    random.Random(3).shuffle(primes)
    primes.sort(key=lambda p: p < 29989)
    work = CountScratch(39989)
    assert [ap_count(crv, p, work) for p in primes] == [ap_count(crv, p) for p in primes]


def test_short_scratch_refused(curve11):
    work = CountScratch(100)
    assert ap_count(curve11, 97, work) == ap_count(curve11, 97)
    with pytest.raises(ValueError, match="scratch of size 100 is too short for p=101"):
        ap_count(curve11, 101, work)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (CURVE_14A, {2: -1, 7: 1}),
        (CURVE_27A, {3: 0}),
        (CURVE_36A, {2: 0, 3: 0}),
        (CURVE_20A, {2: 0, 5: -1}),
    ],
)
def test_ap_bad_primes_pinned(spec, expected):
    crv = resolve_curve(spec)
    assert {p: ap_count(crv, p) for p in expected} == expected


def test_additive_prime_powers_vanish():
    # chi(3) = 0 and a_3 = 0 on 27a, so every a_{3^k} is 0
    t = coefficient_table(CURVE_27A, 30)
    assert t.a[3] == t.a[9] == t.a[27] == 0


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


def test_coefficient_table_checks_bound_before_counting(monkeypatch):
    # primes up to 103 pass 100: refuse before the first count, not at p = 101
    calls = []

    def counting(curve, p, work=None):
        calls.append(p)
        return ap_count(curve, p, work)

    monkeypatch.setattr(curve_mod, "AP_PRIME_BOUND", 100)
    monkeypatch.setattr(curve_mod, "ap_count", counting)
    with pytest.raises(ValueError, match="p=103 exceeds point-counting bound 100"):
        coefficient_table("11a", 103)
    assert calls == []


def test_coefficient_table_refuses_a_long_table_without_sieving_it(monkeypatch):
    # the bound is crossed below 2 * AP_PRIME_BOUND (Bertrand), so no sieve runs past it
    sieve = curve_mod.sieve_primes

    def bounded(n):
        if n > 2 * AP_PRIME_BOUND:
            pytest.fail(f"sieved to {n}")
        return sieve(n)

    monkeypatch.setattr(curve_mod, "sieve_primes", bounded)
    with pytest.raises(ValueError, match="exceeds point-counting bound"):
        coefficient_table("37a", 10 ** 12)


def test_ap_count_refuses_a_large_prime_before_testing_it(monkeypatch, curve11):
    # trial division to sqrt(p) would take ~5e5 steps here; the bound is checked first
    test = curve_mod.is_prime

    def bounded(p):
        if p > AP_PRIME_BOUND:
            pytest.fail(f"primality tested at {p}")
        return test(p)

    monkeypatch.setattr(curve_mod, "is_prime", bounded)
    with pytest.raises(ValueError, match="exceeds point-counting bound"):
        ap_count(curve11, 10 ** 12 + 39)


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


@pytest.mark.parametrize(
    "spec, n_max",
    [(spec, 3000) for spec in ("11a", "37a", CURVE_14A, CURVE_43A, CURVE_389A,
                               CURVE_27A, CURVE_36A, CURVE_20A, CURVE_50A)]
    + [("11a", n_max) for n_max in (1, 2, 10, 1259, 1260)],
)
def test_coefficient_table_matches_reference_expansion(spec, n_max):
    # bit for bit, so the sign of every zero agrees too
    table = coefficient_table(spec, n_max)
    assert table.a.tobytes() == hecke_expand_reference(spec, n_max).tobytes()
    assert table.n_max == n_max


def test_short_table_tail_constant_is_deligne_bound(curve11):
    # 10 terms cannot see |a_n|/n beyond n = 10, so the Deligne bound sqrt(3) applies
    short = coefficient_table(curve11, 10)
    assert short.tail_constant == math.sqrt(3)
    assert 1.1 * float(np.max(np.abs(short.a[1:]) / np.arange(1, 11))) < math.sqrt(3)


def test_tail_constant_switches_at_divisor_bound_start(table11):
    assert certified_tail_constant(table11.a[:DIVISOR_BOUND_START]) == math.sqrt(3)
    assert certified_tail_constant(table11.a[: DIVISOR_BOUND_START + 1]) == 1.1


def test_long_table_tail_constant_unchanged(table11):
    # n_max >= 1260: still 1.1 times the measured max |a_n|/n (1, at n = 1 and 2)
    n = np.arange(1, table11.n_max + 1)
    assert table11.tail_constant == 1.1 * float(np.max(np.abs(table11.a[1:]) / n)) == 1.1


def test_table_invariant_validation():
    a = np.zeros(4)
    a[1] = 2.0  # violates a_1 = 1
    with pytest.raises(ValueError):
        CoefficientTable(a)
    for short in (np.zeros(0), np.ones(1)):
        with pytest.raises(ValueError, match="a_1 must be 1"):
            CoefficientTable(short)
    # n_max and the tail constant are derived from the array, never passed in
    t = CoefficientTable(np.array([0.0, 1.0, -2.0, 3.0]))
    assert (t.n_max, t.tail_constant) == (3, math.sqrt(3))
    with pytest.raises(TypeError):
        CoefficientTable(np.array([0.0, 1.0]), tail_constant=5.0)


@pytest.mark.parametrize("n_max", [0, -5])
def test_table_builders_refuse_n_max_below_1(n_max):
    with pytest.raises(ValueError, match=f"n_max={n_max} must be >= 1"):
        coefficient_table("11a", n_max)
    with pytest.raises(ValueError, match=f"n_max={n_max} must be >= 1"):
        eta_deep_table_level11(n_max)


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(0, 0, 0, 0, 0, 11)  # singular
    with pytest.raises(ValueError):
        CurveSpec(0, -1, 1, -10, -20, 5)  # conductor too small
    # 11a's discriminant is -11^5: 2 and 3 are primes of good reduction
    for N in (12, 22, 33):
        with pytest.raises(ValueError, match=f"conductor N={N} has a prime of good reduction"):
            CurveSpec(0, -1, 1, -10, -20, N)
    assert resolve_curve("0,-1,1,-10,-20,11") == resolve_curve("11a")
    with pytest.raises(ValueError):
        resolve_curve("not-a-curve")


def test_known_models_pass_conductor_check():
    # the presets, the benchmark's 14a, 43a and 389a, and every model the tests use
    specs = [*PRESETS, CURVE_14A, CURVE_43A, CURVE_389A]
    specs += [CURVE_27A, CURVE_36A, CURVE_20A, "0,-1,1,-10,-20,11"]
    for spec in specs:
        crv = resolve_curve(spec)  # raises if a prime of N were prime to the discriminant
        bad = [p for p in curve_mod.sieve_primes(crv.N).tolist() if crv.N % p == 0]
        assert bad and all(crv.discriminant() % p == 0 for p in bad)


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


def _eta11_product(n_terms):
    """prod (1-q^n)^2 (1-q^{11n})^2 to q^{n_terms-1}, multiplied out in Python ints."""
    c = np.zeros(n_terms, dtype=object)
    c[0] = 1
    for k in range(1, n_terms):
        for step in (k, k, 11 * k, 11 * k):
            if step < n_terms:
                c[step:] = c[step:] - c[:-step]  # right side is read before the write
    return c


@pytest.mark.parametrize("n_max", [1, 2, 10, 11, 12, 22, 23, 2000])
def test_eta_deep_table_is_exact_eta_product(n_max):
    # below n_max = 11 some residue classes mod 11 are empty
    a = eta_deep_table_level11(n_max).a
    assert a[0] == 0
    assert a[1:].tolist() == _eta11_product(n_max).tolist()
    assert not np.signbit(a[a == 0]).any()  # zeros are +0.0 whatever the FFT layout


def eta_fft_length(n_max):
    """Power-of-two FFT length of one whole class product in eta_deep_table_level11(n_max).

    The power of two >= 2K - 1, K = ceil(n_max / 11): a class of at most K
    terms times the K-term prefix R, without wrap-around.  The library
    splits each product into half products of at most K terms instead and
    transforms them at _eta_half_length(n_max) >= K points.  Reference only.
    """
    K = -(-int(n_max) // 11)
    return 1 << (2 * K - 2).bit_length()


def _one_transform_eta_table(n_max):
    """The deep table with each class product as one eta_fft_length(n_max)-point FFT."""
    a = np.zeros(n_max + 1)
    E = a[1:]
    exps, signs = curve_mod._pentagonal(n_max)
    for e, s in zip(exps.tolist(), signs.tolist()):
        cut = int(np.searchsorted(exps, n_max - e))
        E[exps[:cut] + e] += signs[:cut] * s
    M = eta_fft_length(n_max)
    R = np.fft.rfft(E[: -(-n_max // 11)], M)
    for r in range(min(11, n_max)):
        cls = E[r::11]
        cls[:] = np.round(np.fft.irfft(np.fft.rfft(cls, M) * R, M)[: len(cls)]) + 0.0
    return a


@pytest.mark.parametrize("n_max", [1, 13, 30000, 11 << 14, (11 << 14) + 1, 200003])
def test_eta_deep_table_halves_match_one_transform(n_max):
    # at 11 << 14, K = 2^14 is its own half-product length: the transforms are full
    assert eta_deep_table_level11(n_max).a.tobytes() == _one_transform_eta_table(n_max).tobytes()


@pytest.mark.parametrize("n_max", [1, 2, 10, 11, 12, 22, 23, 2000, 200003])
def test_eta_int32_coefficients_match_float64_table(n_max):
    a = eta_deep_table_level11(n_max, np.int32).a
    assert a.dtype == np.int32
    assert np.array_equal(a, eta_deep_table_level11(n_max).a)


def test_eta_int_coefficients_refuse_overflow():
    # |a_n| reaches 720 below n = 30000, beyond int8
    with pytest.raises(OverflowError):
        eta_deep_table_level11(30000, np.int8)


def test_eta_int32_build_peak_memory(traced_peak):
    # table at 4 bytes a term plus five spectra of ~n/11 points: less than the
    # float64 table alone
    n_max = 10 ** 6
    peak, _ = traced_peak(lambda: eta_deep_table_level11(n_max, np.int32))
    assert peak <= 8 * (n_max + 1)


def test_eta_half_length_is_least_5_smooth_cover():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in list(range(1, 2500)) + [11 << 14, (11 << 14) + 1, 5692306, 8681058]:
        K = -(-n // 11)
        N = curve_mod._eta_half_length(n)
        assert N >= K and smooth(N) and not any(smooth(m) for m in range(K, N)), n
    assert curve_mod._eta_half_length(5692306) == 518400  # 2^8 3^4 5^2; 2^19 = 524288


def test_eta_fft_length_is_power_of_two_cover():
    # a class of K = ceil(n/11) terms times the K-term prefix: 2K - 1 points, no wrap
    assert [eta_fft_length(n) for n in (1, 11, 12, 22, 23, 44, 45)] == [1, 1, 4, 4, 8, 8, 16]
    assert eta_fft_length(11 << 19) == 1 << 20
    assert eta_fft_length((11 << 19) + 1) == 1 << 21


def test_eta_deep_table_peak_memory(traced_peak):
    # tracemalloc sees numpy's buffers: the build holds the table plus O(n/11) scratch
    n_max = 10 ** 6
    peak, _ = traced_peak(lambda: eta_deep_table_level11(n_max))
    assert peak <= 2.5 * 8 * (n_max + 1)


def test_max_ratio_matches_full_expression():
    rng = np.random.default_rng(5)
    for length in (2, _SUM_CHUNK, _SUM_CHUNK + 1, _SUM_CHUNK + 2, 3 * _SUM_CHUNK + 7):
        a = rng.integers(-50, 50, size=length).astype(np.float64)
        full = float(np.max(np.abs(a[1:]) / np.arange(1, length)))
        assert max_ratio(a) == full
        a[-1] = np.nan
        assert math.isnan(max_ratio(a))
    with pytest.raises(ValueError):
        max_ratio(np.zeros(1))


def test_coefficient_table_checks_in_chunks(traced_peak):
    n_max = 4 * 10 ** 6
    a = np.zeros(n_max + 1)
    a[1] = 1.0
    a[2::7] = -2.0
    peak, _ = traced_peak(lambda: CoefficientTable(a))
    assert peak <= 8 * 8 * _SUM_CHUNK  # a few chunk-sized buffers, not length-n_max ones


# --- a_p by baby-step/giant-step lanes --------------------------------------


@functools.cache
def _counted_table(spec, n_max):
    """coefficient_table, built once for the lane tests: a[p] is ap_count's a_p."""
    return coefficient_table(spec, n_max)


def _lane_primes(crv, n_max):
    """The primes the lanes may take: p >= 5 not dividing the discriminant, any size."""
    delta = crv.discriminant()
    return [p for p in curve_mod.sieve_primes(n_max).tolist() if p >= 5 and delta % p]


def _check_lanes(crv, primes, want):
    """Resolved lanes hold want[p], the rest 0; nearly every lane above 10^3 resolves."""
    a, resolved = curve_mod._lane_aps(crv, primes)
    wrong = [(p, x, want[p]) for p, x, ok in zip(primes, a.tolist(), resolved.tolist())
             if ok and x != want[p]]
    assert not wrong, wrong[:5]
    assert not a[~resolved].any()
    big = np.array(primes) > 1000
    assert np.count_nonzero(~resolved & big) <= 0.02 * np.count_nonzero(big)


@pytest.mark.parametrize(
    "spec, n_max",
    [(spec, 30000) for spec in ("11a", "37a", CURVE_14A, CURVE_43A, CURVE_389A)]
    + [(spec, 3000) for spec in (CURVE_27A, CURVE_36A, CURVE_20A)],
)
def test_lanes_match_the_count(table11, spec, n_max):
    # every good p >= 5
    crv = resolve_curve(spec)
    primes = _lane_primes(crv, n_max)
    a = (table11 if spec == "11a" else _counted_table(spec, n_max)).a
    _check_lanes(crv, primes, {p: int(a[p]) for p in primes})


def test_lanes_match_the_eta_product_to_200000(curve11):
    # an oracle that counts no points: 11a's eta product
    primes = _lane_primes(curve11, 2 * 10 ** 5)
    a = eta_deep_table_level11(2 * 10 ** 5).a
    _check_lanes(curve11, primes, {p: int(a[p]) for p in primes})


@pytest.mark.parametrize("spec, p", [("11a", 1091), ("37a", 953), ("37a", 2671)])
def test_lanes_named_primes(spec, p):
    # 37a: a_953 = 61 and a_2671 = 103 lie one past 2 isqrt(p), inside isqrt(4p).
    # 11a at 1091: one point has order 17, so its search meets O and would
    # leave eight a's in the window; it must not be trusted
    crv = resolve_curve(spec)
    want = ap_count(crv, p)
    a, resolved = curve_mod._lane_aps(crv, [p])
    assert resolved.tolist() == [True] and a.tolist() == [want]
    b2, b4, b6, _ = crv.b_invariants()
    c4, c6 = b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    lane = [np.array([x], dtype=np.int64) for x in (p, math.isqrt(4 * p), -27 * c4 % p, -54 * c6 % p)]
    unclean = 0
    for attempt in range(curve_mod._LANE_POINTS):
        x, ok = curve_mod._search(*lane, attempt)
        assert x.tolist() == [want if ok[0] else 0]
        unclean += not ok[0]
    if spec == "37a":
        assert abs(want) > 2 * math.isqrt(p)
    else:
        assert unclean  # the order-17 point


def test_lane_retries_pool_every_chunk(monkeypatch):
    # attempt 0 searches every lane once, a chunk at a time; each later attempt
    # searches the lanes still unresolved, pooled across chunks
    calls = []
    search = curve_mod._search

    def recording(p, w, A, B, attempt):
        a, ok = search(p, w, A, B, attempt)
        calls.append((attempt, p.tolist(), ok.tolist()))
        return a, ok

    monkeypatch.setattr(curve_mod, "_search", recording)
    crv = resolve_curve("37a")
    primes = live = _lane_primes(crv, 17192)
    curve_mod._lane_aps(crv, live)
    chunk = curve_mod._LANE_CHUNK
    for attempt in range(curve_mod._LANE_POINTS):
        these = [(p, ok) for at, p, ok in calls if at == attempt]
        assert [q for p, _ in these for q in p] == live
        assert len(these) == -(-len(live) // chunk)
        assert all(len(p) <= chunk for p, _ in these)
        live = [q for p, ok in these for q, done in zip(p, ok) if not done]
    # attempt 0 took two chunks, and attempt 1 searched the leftovers of both in one call
    second_chunk = [p for at, p, _ in calls if at == 0][1][0]
    (retry,) = [p for at, p, _ in calls if at == 1]
    assert retry[0] < second_chunk <= retry[-1]
    # each lane's own window, not the call's, decides: the small primes resolve too
    assert len(live) <= 0.02 * len(primes)


@pytest.mark.parametrize(
    "spec, n_max",
    [(spec, 30000) for spec in ("37a", CURVE_14A, CURVE_43A, CURVE_389A)]
    + [("37a", 17192)]
    + [(spec, 3000) for spec in (CURVE_27A, CURVE_36A, CURVE_20A)],
)
def test_symbol_table_is_the_count_bytes(spec, n_max):
    assert curve_mod._symbol_table(spec, n_max).a.tobytes() == _counted_table(spec, n_max).a.tobytes()


def test_symbol_table_falls_back_to_the_count(monkeypatch):
    # no lane may resolve: every prime is counted, and the bytes are the count's
    def unclean(p, w, A, B, attempt):
        return np.zeros(len(p), dtype=np.int64), np.zeros(len(p), dtype=bool)

    monkeypatch.setattr(curve_mod, "_search", unclean)
    counted = []

    def counting(curve, p, work=None):
        counted.append(p)
        return ap_count(curve, p, work)

    monkeypatch.setattr(curve_mod, "ap_count", counting)
    table = curve_mod._symbol_table("37a", 5000)
    assert counted == curve_mod.sieve_primes(5000).tolist()
    assert table.a.tobytes() == _counted_table("37a", 5000).a.tobytes()


def test_symbol_table_peak_memory(traced_peak):
    # the lanes run in chunks: the stats job's 37a table at n_max = 17,192
    peak, table = traced_peak(lambda: curve_mod._symbol_table("37a", 17192))
    assert table.n_max == 17192
    assert peak <= 2 * 2 ** 20, peak


def test_lane_products_stay_below_2_40():
    # every product in the lanes is of two residues below p <= AP_PRIME_BOUND
    assert AP_PRIME_BOUND ** 2 < 2 ** 40


def test_lattice_distance_zero_for_lattice_points(lattice11):
    pts = [0, lattice11.omega1, lattice11.omega2, 3 * lattice11.omega1 - 2 * lattice11.omega2]
    d = lattice_distance(np.array(pts), lattice11)
    assert np.max(d) < 1e-12
