"""Modular symbol evaluation: closed form, quadrature oracle, decomposition."""

import cmath
import math
import random

import numpy as np
import pytest

from modsymdist.cosets import Coset, GammaMatrix, lift
from modsymdist.curve import lattice_distance
from modsymdist.modsym import (
    antiderivative,
    decompose,
    oracle_pairing,
    pairing,
    samples_from_batch,
    symbols_up_to,
)

# H(i) = sum (a_n/n) e^{-2 pi n} for 11a, pinned before the build by direct
# quadrature of f along the vertical ray (2 pi * Int_1^inf f(iy) dy).
H_AT_I_11A = 0.0018639532246330695


def test_antiderivative_decays_at_infinity(table11):
    assert abs(antiderivative(table11, 40j, 1e-14)) < 1e-80


def test_antiderivative_periodicity(table11):
    z = 0.37 + 0.9j
    assert antiderivative(table11, z, 1e-13) == pytest.approx(
        antiderivative(table11, z + 1, 1e-13), abs=1e-12
    )


def test_antiderivative_at_i_vs_quadrature_oracle(table11):
    # independent oracle: H(i) = 2 pi Int_1^inf f(iy) dy, f summed directly
    from scipy.integrate import quad

    def f_on_ray(y):
        n = np.arange(1, 60)
        return float(np.sum(table11.a[1:60] * np.exp(-2 * math.pi * n * y)))

    val, _ = quad(f_on_ray, 1, 12, limit=200)
    assert 2 * math.pi * val == pytest.approx(H_AT_I_11A, abs=1e-12)
    assert antiderivative(table11, 1j, 1e-14) == pytest.approx(H_AT_I_11A, abs=1e-13)


def test_antiderivative_rejects_short_table(table11):
    with pytest.raises(ValueError, match="n_max"):
        antiderivative(table11, 1e-4j, 1e-10)


def test_pairing_identity_and_c0(table11):
    assert pairing(table11, GammaMatrix(1, 0, 0, 1)).value == 0
    assert pairing(table11, GammaMatrix(1, 5, 0, 1)).value == 0  # any translation
    assert pairing(table11, GammaMatrix(-1, 3, 0, -1)).value == 0


def test_pairing_translation_invariance(table11):
    # <T gamma, f> = <gamma, f>: the closed form only sees a mod c
    g = GammaMatrix(3, 1, 11, 4)
    tg = GammaMatrix(3 + 11, 1 + 4, 11, 4)
    v1 = pairing(table11, g, 1e-12).value
    v2 = pairing(table11, tg, 1e-12).value
    assert abs(v1 - v2) < 1e-15


def test_pairing_sign_canonicalization(table11):
    g = GammaMatrix(3, 1, 11, 4)
    neg = GammaMatrix(-3, -1, -11, -4)
    assert pairing(table11, g, 1e-12).value == pairing(table11, neg, 1e-12).value


def test_pairing_lattice_membership_example(table11, lattice11):
    v = pairing(table11, GammaMatrix(1, 0, 11, 1), 1e-12).value
    assert float(lattice_distance([v], lattice11)[0]) < 1e-8


def test_pairing_known_nonzero_value(table11, lattice11):
    # pinned by adaptive quadrature of -2 pi i Int f from z0 to gamma z0:
    # <[[6,1],[11,2]], f> = omega1 of 11a (agreement 5e-15 at build time)
    v = pairing(table11, GammaMatrix(6, 1, 11, 2), 1e-13).value
    assert v == pytest.approx(lattice11.omega1, abs=1e-12)


def test_pairing_doubling(table11):
    # <gamma^2, f> = 2 <gamma, f>: path-splitting additivity
    g = GammaMatrix(1, 0, 11, 1)
    g2 = g @ g
    assert abs(pairing(table11, g2, 1e-12).value - 2 * pairing(table11, g, 1e-12).value) < 1e-10


def _coprime_d(rng, c, lo, hi):
    while True:
        d = rng.randint(lo, hi)
        if math.gcd(c, d) == 1:
            return d


def test_homomorphism_small_sample(table11):
    # products stay at c <= ~3200, inside the 30k table; the full-bound
    # version (entries <= 1e3) is acceptance criterion 1 with the deep table
    rng = random.Random(5)
    for _ in range(20):
        c1, c2 = 11 * rng.randint(1, 4), 11 * rng.randint(1, 4)
        d1 = _coprime_d(rng, c1, -30, 30)
        d2 = _coprime_d(rng, c2, -30, 30)
        g1 = lift(Coset(c1, d1, float(c1 * c1 + d1 * d1)))
        g2 = lift(Coset(c2, d2, float(c2 * c2 + d2 * d2)))
        v1 = pairing(table11, g1, 1e-11).value
        v2 = pairing(table11, g2, 1e-11).value
        v3 = pairing(table11, g1 @ g2, 1e-11).value
        assert abs(v3 - v1 - v2) < 1e-9


def test_inverse_antisymmetry(table11):
    g = lift(Coset(33, 10, float(33 ** 2 + 100)))
    vi = pairing(table11, g.inverse(), 1e-12).value
    v = pairing(table11, g, 1e-12).value
    assert abs(vi + v) < 1e-10


def test_pairing_tol_unreachable_reports_needed(table11):
    with pytest.raises(ValueError, match="n_max"):
        pairing(table11, lift(Coset(11 * 10 ** 5, 1, 1e10 + 1)), 1e-10)


def test_pairing_err_bound_below_tol(table11):
    s = pairing(table11, GammaMatrix(3, 1, 11, 4), 1e-9)
    assert 0 < s.err_bound <= 1e-9
    assert s.value == s.alpha + 1j * s.beta
    assert s.alpha.real == 0 and s.beta.real == 0


def test_oracle_pairing_matches_and_height_free(table11):
    rng = random.Random(2)
    for _ in range(6):
        c = 11 * rng.randint(1, 8)
        d = _coprime_d(rng, c, -2 * c, 2 * c)
        m = lift(Coset(c, d, float(c * c + d * d)))
        o1 = oracle_pairing(table11, m, 1.0, 1e-10)
        o2 = oracle_pairing(table11, m, 2.0, 1e-10)
        v = pairing(table11, m, 1e-12).value
        assert abs(o1 - o2) < 1e-9
        assert abs(o1 - v) < 1e-8


def _mpmath_ray_integral(table, num, den, y0):
    """Int_{y0}^{inf} f(num/den + i y) i dy: 30-digit mpmath.quad of the raw q-series."""
    import mpmath

    with mpmath.workdps(30):
        twist = mpmath.expj(2 * mpmath.pi * mpmath.mpf(num) / den)

        def f(y):
            terms = int(math.ceil(60 / (2 * math.pi * float(y))))  # tail ~ e^{-60}
            q = twist * mpmath.exp(-2 * mpmath.pi * y)
            acc = mpmath.mpc(0)
            for a in table.a[terms:0:-1]:  # Horner in q, a_n are integers
                acc = acc * q + int(a)
            return acc * q

        pts = [mpmath.mpf(y0)]
        while pts[-1] < 4:
            pts.append(2 * pts[-1])
        return 1j * mpmath.quad(f, pts + [mpmath.inf])


def test_oracle_pairing_vs_mpmath_quad(table11):
    import mpmath

    for c, d in ((11, 3), (22, -7), (33, 19)):
        m = lift(Coset(c, d, float(c * c + d * d)))
        a, c, d = (m.a, m.c, m.d) if m.c > 0 else (-m.a, -m.c, -m.d)
        # split at z* = (a + i)/c: both rays start at height 1/c
        up = _mpmath_ray_integral(table11, a, c, mpmath.mpf(1) / c)
        dn = _mpmath_ray_integral(table11, -d, c, mpmath.mpf(1) / c)
        ref = complex(-2j * mpmath.pi * (dn - up))
        for h in (1.0, 2.0):
            assert abs(oracle_pairing(table11, m, h, 1e-10) - ref) < 1e-10


def test_oracle_pairing_c0(table11):
    assert oracle_pairing(table11, GammaMatrix(1, 3, 0, 1)) == 0


def test_decompose_identities():
    assert decompose(0) == (0, 0)
    a, b = decompose(2 * math.pi)  # real value: alpha = 0, i*beta = value
    assert a == 0 and 1j * b == 2 * math.pi
    rng = random.Random(9)
    for _ in range(50):
        v = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        alpha, beta = decompose(v)
        assert alpha + 1j * beta == v  # exact recomposition
        assert alpha.real == 0 and beta.real == 0


def test_batch_matches_pairing(table11, batch11_1e4):
    # the folded-DFT batch path and the direct series agree per coset
    idx = np.random.default_rng(0).choice(len(batch11_1e4.cs), 25, replace=False)
    for i in idx:
        c, d = int(batch11_1e4.cs[i]), int(batch11_1e4.ds[i])
        m = lift(Coset(c, d, float(c * c + d * d)))
        v = pairing(table11, m, 1e-12).value
        assert abs(v - batch11_1e4.values[i]) < 1e-10


def test_batch_thread_determinism(table11):
    b1 = symbols_up_to(table11, 11, 3 * 10 ** 4, tol=1e-10, threads=1)
    b4 = symbols_up_to(table11, 11, 3 * 10 ** 4, tol=1e-10, threads=4)
    assert np.array_equal(b1.values, b4.values)
    assert np.array_equal(b1.cs, b4.cs)


def test_batch_count_and_restrict(batch11_1e4):
    sub = batch11_1e4.restricted(122)
    assert sub.count == 3
    assert batch11_1e4.count == 795  # frozen from the exhaustive enumeration


def test_samples_from_batch(batch11_1e4):
    samples = samples_from_batch(batch11_1e4.restricted(122))
    assert len(samples) == 3
    assert samples[0].value == 0
    for s in samples[1:]:
        assert s.value == s.alpha + 1j * s.beta


def test_eichler_growth_monitored(batch11_1e4):
    # |<g,f>| = O(log norm): ratio bounded on the batch (recorded constant)
    ratios = np.abs(batch11_1e4.values) / np.log(batch11_1e4.norms)
    assert float(np.max(ratios)) < 0.75
