"""Modular symbol evaluation: closed form, quadrature oracle, alpha/beta split."""

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from modsymdist import modsym
from modsymdist.cosets import GammaMatrix, _prime_factors, coset_arrays, lift
from modsymdist.curve import (
    CoefficientTable,
    coefficient_table,
    eta_deep_table_level11,
    lattice_distance,
)
from modsymdist.modsym import (
    _carmichael,
    _fold,
    _inverse_table,
    _prime_power_inverses,
    _terms_for_c,
    antiderivative,
    oracle_pairing,
    pairing,
    symbols_up_to,
    tail_terms_needed,
)
from modsymdist.series import _SUM_CHUNK, WeightSpec

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
    assert pairing(table11, GammaMatrix(1, 0, 0, 1)) == (0j, 0.0)
    assert pairing(table11, GammaMatrix(1, 5, 0, 1)) == (0j, 0.0)  # any translation
    assert pairing(table11, GammaMatrix(-1, 3, 0, -1)) == (0j, 0.0)


def test_pairing_translation_invariance(table11):
    # <T gamma, f> = <gamma, f>: the closed form only sees a mod c
    g = GammaMatrix(3, 1, 11, 4)
    tg = GammaMatrix(3 + 11, 1 + 4, 11, 4)
    v1, _ = pairing(table11, g, 1e-12)
    v2, _ = pairing(table11, tg, 1e-12)
    assert abs(v1 - v2) < 1e-15


def test_pairing_sign_canonicalization(table11):
    g = GammaMatrix(3, 1, 11, 4)
    neg = GammaMatrix(-3, -1, -11, -4)
    assert pairing(table11, g, 1e-12) == pairing(table11, neg, 1e-12)


def test_pairing_lattice_membership_example(table11, lattice11):
    v, _ = pairing(table11, GammaMatrix(1, 0, 11, 1), 1e-12)
    assert float(lattice_distance([v], lattice11)[0]) < 1e-8


def test_pairing_known_nonzero_value(table11, lattice11):
    # pinned by adaptive quadrature of -2 pi i Int f from z0 to gamma z0:
    # <[[6,1],[11,2]], f> = omega1 of 11a (agreement 5e-15 at build time)
    v, _ = pairing(table11, GammaMatrix(6, 1, 11, 2), 1e-13)
    assert v == pytest.approx(lattice11.omega1, abs=1e-12)


def test_pairing_doubling(table11):
    # <gamma^2, f> = 2 <gamma, f>: path-splitting additivity
    g = GammaMatrix(1, 0, 11, 1)
    g2 = g @ g
    assert abs(pairing(table11, g2, 1e-12)[0] - 2 * pairing(table11, g, 1e-12)[0]) < 1e-10


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
        g1 = lift(c1, d1)
        g2 = lift(c2, d2)
        v1, _ = pairing(table11, g1, 1e-11)
        v2, _ = pairing(table11, g2, 1e-11)
        v3, _ = pairing(table11, g1 @ g2, 1e-11)
        assert abs(v3 - v1 - v2) < 1e-9


def test_inverse_antisymmetry(table11):
    g = lift(33, 10)
    vi, _ = pairing(table11, g.inverse(), 1e-12)
    v, _ = pairing(table11, g, 1e-12)
    assert abs(vi + v) < 1e-10


def test_pairing_tol_unreachable_reports_needed(table11):
    with pytest.raises(ValueError, match="n_max"):
        pairing(table11, lift(11 * 10 ** 5, 1), 1e-10)


def _alpha_beta(values):
    """(<gamma, alpha>, <gamma, beta>) per value, read off the ab:1,0 and ab:0,1 weights."""
    return WeightSpec("alphabeta", 1, 0).apply(values), WeightSpec("alphabeta", 0, 1).apply(values)


def test_pairing_err_bound_below_tol(table11):
    value, err = pairing(table11, GammaMatrix(3, 1, 11, 4), 1e-9)
    assert 0 < err <= 1e-9
    (alpha,), (beta,) = _alpha_beta([value])
    assert value == alpha + 1j * beta
    assert alpha.real == 0 and beta.real == 0


def test_oracle_pairing_matches_and_height_free(table11):
    rng = random.Random(2)
    for _ in range(6):
        c = 11 * rng.randint(1, 8)
        d = _coprime_d(rng, c, -2 * c, 2 * c)
        m = lift(c, d)
        o1 = oracle_pairing(table11, m, 1.0, 1e-10)
        o2 = oracle_pairing(table11, m, 2.0, 1e-10)
        v, _ = pairing(table11, m, 1e-12)
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
        m = lift(c, d)
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
    # value = alpha + i*beta with alpha, beta in i*R, through WeightSpec.apply
    (a0,), (b0,) = _alpha_beta([0])
    assert (a0, b0) == (0, 0)
    (a,), (b,) = _alpha_beta([2 * math.pi])  # real value: alpha = 0, i*beta = value
    assert a == 0 and 1j * b == 2 * math.pi
    rng = random.Random(9)
    for _ in range(50):
        v = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        (alpha,), (beta,) = _alpha_beta([v])
        assert alpha + 1j * beta == v  # exact recomposition
        assert alpha.real == 0 and beta.real == 0


def test_batch_matches_pairing(table11, batch11_1e4):
    # the batch's DFT of the fold and pairing's two-residue read-out agree per
    # coset; both share _fold, so test_pairing_vs_direct_series is the reference
    ds = np.concatenate([c_ds for _, c_ds, _ in coset_arrays(11, batch11_1e4.T, batch11_1e4.z)])
    assert len(ds) == len(batch11_1e4.norms)
    idx = np.random.default_rng(0).choice(len(batch11_1e4.cs), 25, replace=False)
    for i in idx:
        c, d = int(batch11_1e4.cs[i]), int(ds[i])
        m = lift(c, d)
        v, _ = pairing(table11, m, 1e-12)
        assert abs(v - batch11_1e4.values[i]) < 1e-10


def _direct_pairing(table, c, u1, u2, n_used):
    """sum_{n <= n_used} (a_n/n) r^n (e^{2 pi i n u1/c} - e^{2 pi i n u2/c}), term by term.

    Each phase comes from the exact integer (n u) mod c; no residue fold.
    """
    n = np.arange(1, n_used + 1, dtype=np.int64)
    w = table.a[1 : n_used + 1] / n * np.exp(-2 * math.pi * n / c)
    ph = np.exp(2j * math.pi * ((n * u1) % c) / c) - np.exp(2j * math.pi * ((n * u2) % c) / c)
    return complex(np.sum(w * ph))


def _tol_for_terms(table, c, target):
    """A tol at which pairing at denominator c sums exactly `target` terms (bisection)."""
    lo, hi = -30.0, 5.0  # log10 tol: many terms at lo, few at hi
    for _ in range(200):
        mid = (lo + hi) / 2
        got = tail_terms_needed(1.0 / c, table.tail_constant, 10 ** mid)
        if got == target:
            return 10 ** mid
        lo, hi = (mid, hi) if got > target else (lo, mid)
    raise AssertionError(f"no tol gives {target} terms at c={c}")


@pytest.fixture(scope="module")
def eta_table_1e5():
    # long enough for every c <= 100100 at tol 1e-10 (11a's tail constant is 1.1)
    return eta_deep_table_level11(tail_terms_needed(1 / 100100, 1.1, 1e-10))


def test_pairing_vs_direct_series(eta_table_1e5):
    # the residue fold against the series written out term by term
    rng = random.Random(4)
    for c in (11, 121, 1331, 11 * 9091):
        for _ in range(3):
            d = _coprime_d(rng, c, -c, c)
            m = lift(c, d)
            n_used = tail_terms_needed(1.0 / c, eta_table_1e5.tail_constant, 1e-10)
            ref = _direct_pairing(eta_table_1e5, c, (-d) % c, m.a % c, n_used)
            assert abs(pairing(eta_table_1e5, m, 1e-10)[0] - ref) < 1e-11


@pytest.mark.parametrize("c", [11, 121])
@pytest.mark.parametrize("rows", [0, 1, 3])
def test_pairing_vs_direct_series_row_edges(eta_table_1e5, c, rows):
    # rows = 0: n_used < c (one partial row); else n_used + 1 = 0 (mod c): last row full
    rng = random.Random(c + rows)
    targets = [c // 2] if rows == 0 else [(rows + 1) * c - 1, (rows + 1) * c, (rows + 1) * c + 1]
    for n_used in targets:
        tol = _tol_for_terms(eta_table_1e5, c, n_used)
        d = _coprime_d(rng, c, -c, c)
        m = lift(c, d)
        ref = _direct_pairing(eta_table_1e5, c, (-d) % c, m.a % c, n_used)
        assert abs(pairing(eta_table_1e5, m, tol)[0] - ref) < 1e-11


def _fold_one_pass(a, c, n_used):
    """_fold over all c residues at once, with length-c scratch (its form before the blocks)."""
    acc = np.zeros(c)
    buf = np.empty(c)
    k = np.arange(c, dtype=np.float64)
    for j in range(n_used // c + 1):
        lo = 1 if j == 0 else 0
        hi = min(c, n_used - j * c + 1)
        row = buf[lo:hi]
        np.add(k[lo:hi], j * c, out=row)
        np.divide(a[j * c + lo : j * c + hi], row, out=row)
        row *= math.exp(-2 * math.pi * j)
        acc[lo:hi] += row
    np.multiply(k, -2 * math.pi / c, out=buf)
    acc *= np.exp(buf, out=buf)
    return acc


@pytest.mark.parametrize(
    "c", [1, 2, 11, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 3 * _SUM_CHUNK + 5]
)
def test_fold_blocks_match_one_pass(c):
    # every residue block sees the one-pass operations: bit-identical, float64 or int32 a_n
    rng = np.random.default_rng(c)
    n_top = 2 * c + _SUM_CHUNK // 2
    a = rng.integers(-3000, 3000, size=n_top + 1).astype(np.float64)
    for n_used in sorted({max(1, c // 2), max(1, c - 1), c, c + 1, 2 * c - 1, n_top}):
        ref = _fold_one_pass(a, c, n_used).tobytes()
        assert _fold(a, c, n_used).tobytes() == ref, n_used
        assert _fold(a.astype(np.int32), c, n_used).tobytes() == ref, n_used
        padded = _fold(a, c, n_used, size=c + 7)
        assert padded[:c].tobytes() == ref and not padded[c:].any(), n_used


@pytest.mark.parametrize(
    "c, n_used",
    [
        (11 * 1009, 5 * 11 * 1009 - 1),  # 5 full rows, 55,495 < 2^16 entries: one group
        (11 * 1009, 5 * 11 * 1009),  # 6 rows, 66,594 > 2^16: 5 full rows, then a last of one term
        (11 * 1009, 6 * 11 * 1009 + 5),  # 7 rows: full rows in groups of 5 and 1, the last of 6 terms
        (1, 3 * _SUM_CHUNK),  # one residue, more rows than a group holds
        (2, 2 * _SUM_CHUNK + 3),
    ],
)
def test_fold_rows_straddling_a_block_match_one_pass(c, n_used):
    a = np.random.default_rng(c + n_used).integers(-3000, 3000, size=n_used + 1).astype(np.float64)
    ref = _fold_one_pass(a, c, n_used).tobytes()
    assert _fold(a, c, n_used).tobytes() == ref
    assert _fold(a.astype(np.int32), c, n_used).tobytes() == ref


def test_prime_power_inverses_are_cached_read_only():
    # every later _inverse_table call shares these arrays
    for p, e in ((11, 1), (2, 5), (3, 4)):
        table = _prime_power_inverses(p, e)
        assert not table.flags.writeable and _prime_power_inverses(p, e) is table
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
        assert table.tolist() == _inverse_table(p ** e).tolist()


def test_pairing_int32_table_is_bit_identical(eta_table_1e5):
    # pairing converts each a_n to float64 exactly, so the int32 table gives the same bits
    narrow = CoefficientTable(eta_table_1e5.a.astype(np.int32))
    assert narrow.tail_constant == eta_table_1e5.tail_constant
    rng = random.Random(9)
    for c in (11, 121, 1331, 11 * 9091):  # 11 * 9091 > _SUM_CHUNK: several residue blocks
        for _ in range(3):
            d = _coprime_d(rng, c, -c, c)
            m = lift(c, d)
            assert pairing(narrow, m, 1e-10) == pairing(eta_table_1e5, m, 1e-10)


def test_pairing_peak_memory(traced_peak):
    # one fold-sized array plus block scratch, not several length-c temporaries
    c = 11 * 95326  # > 2^20
    a = np.zeros(6 * 10 ** 6, dtype=np.int32)
    a[1] = 1  # H(z) = e^{2 pi i z}: the symbol is H((-1 + i)/c) - H((1 + i)/c)
    table = CoefficientTable(a)
    peak, (value, _) = traced_peak(lambda: pairing(table, GammaMatrix(1, 0, c, 1), 1e-9))
    assert peak <= 1.5 * 8 * c
    expected = -2j * math.exp(-2 * math.pi / c) * math.sin(2 * math.pi / c)
    assert value == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_inverse_table_matches_pow():
    # lambda(c) < phi(c) at 2^k (k >= 3), 8 p and 27720; lambda = phi at 2 p^e (cyclic units)
    extra = [1 << k for k in range(3, 17)] + [8 * 101, 8 * 1009, 2 * 3 ** 5, 2 * 7 ** 4, 2 * 5 ** 3]
    for c in list(range(1, 401)) + extra + [3157, 11 * 1009, 99991, 27720]:
        want = [pow(r, -1, c) if math.gcd(r, c) == 1 else 0 for r in range(c)]
        assert _inverse_table(c).tolist() == want, c


def test_carmichael_is_the_unit_group_exponent():
    # the least m >= 1 with r^m = 1 (mod c) for every unit r
    for c in list(range(1, 301)) + [1 << 10, 8 * 101, 27720]:
        units = [r for r in range(c) if math.gcd(r, c) == 1]
        lam = _carmichael(_prime_factors(c))
        assert all(pow(r, lam, c) == 1 % c for r in units), c
        assert all(any(pow(r, m, c) != 1 % c for r in units) for m in range(1, lam) if lam % m == 0), c


def _inverse_table_euler(c):
    """r^{phi(c)-1} mod c over the np.gcd units, as before the unit mask. Reference only."""
    r = np.arange(c, dtype=np.int64)
    unit = np.gcd(r, c) == 1
    base = r[unit]
    power = np.ones(len(base), dtype=np.int64)
    e = len(base) - 1
    while e:
        if e & 1:
            power = power * base % c
        base = base * base % c
        e >>= 1
    inv = np.zeros(c, dtype=np.int64)
    inv[unit] = power % c
    return inv


def _batch_reference(table, N, T, z, tol):
    """cs, norms, values and err_bounds per symbol from the per-c kernel as it was before the unit mask."""
    cols = [[], [], [], []]
    for c, ds, norms in coset_arrays(N, T, z):
        n_used, err = _terms_for_c(table, c, tol)
        hvals = np.fft.ifft(_fold(table.a, c, n_used)) * c
        values = hvals[(-ds) % c] - hvals[_inverse_table_euler(c)[ds % c]]
        arrays = (np.full(len(ds), c, dtype=np.int64), norms, values, np.full(len(ds), err))
        for col, arr in zip(cols, arrays):
            col.append(arr)
    dtypes = (np.int64, np.float64, np.complex128, np.float64)
    return [np.concatenate(col) if col else np.zeros(0, dt) for col, dt in zip(cols, dtypes)]


@pytest.fixture(scope="module")
def table14():
    return coefficient_table("1,0,1,4,-6,14", 8000)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "name, N, T, z",
    [("table11", 11, 10 ** 6, 1j), ("table37", 37, 10 ** 6, 0.25 + 0.9j), ("table14", 14, 10 ** 6, 1j),
     ("table11", 11, 100, 1j)],  # no coset has norm <= 100 at level 11: an empty batch
)
def test_batch_matches_euler_kernel_reference(request, name, N, T, z, threads):
    table = request.getfixturevalue(name)
    batch = symbols_up_to(table, N, T, z, tol=1e-10, threads=threads)
    want = _batch_reference(table, N, T, z, 1e-10)
    got = [batch.cs, batch.norms, batch.values, batch.per_symbol(batch.group_err_bounds)]
    for field, g, w in zip(("cs", "norms", "values", "err_bounds"), got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


PER_GROUP = ("group_cs", "group_counts", "group_err_bounds")
PER_SYMBOL = ("cs", "norms", "values")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "name, N, T, z",
    [("table11", 11, 10 ** 6, 1j), ("table11", 11, 10 ** 7, 1j), ("table37", 37, 10 ** 6, 0.25 + 0.9j),
     ("table11", 11, 100, 1j)],
)
def test_per_c_columns_and_restriction_match_fresh_builds(request, name, N, T, z, threads):
    table = request.getfixturevalue(name)
    batch = symbols_up_to(table, N, T, z, tol=1e-10, threads=threads)
    # cs and per_symbol spell the per-c columns out per symbol, in today's dtypes
    err_bounds = batch.per_symbol(batch.group_err_bounds)
    assert batch.cs.dtype == np.int64 and err_bounds.dtype == np.float64
    assert batch.cs.tobytes() == np.repeat(batch.group_cs, batch.group_counts).tobytes()
    assert np.all(batch.group_counts > 0) and batch.group_counts.sum() == len(batch.norms)
    # any window of them, block boundaries and empty windows included
    n = len(batch.norms)
    for start, stop in ((0, n), (0, 0), (n, n + 5), (_SUM_CHUNK - 3, 2 * _SUM_CHUNK + 1), (7, 8), (1, n + 9)):
        for per_group, column in ((batch.group_cs, batch.cs), (batch.group_err_bounds, err_bounds)):
            got = batch.per_symbol(per_group, start, stop)
            assert got.dtype == column.dtype and got.tobytes() == column[start:stop].tobytes()
    # a restriction is a fresh build at the smaller bound, every column and dtype alike
    for t in (T, T / 10, T / 1000, 1):
        if t < 1:
            continue
        got, fresh = batch.restricted(t), symbols_up_to(table, N, t, z, tol=1e-10, threads=threads)
        assert (got.T, got.z, got.count) == (fresh.T, fresh.z, fresh.count)
        for field in PER_SYMBOL + PER_GROUP:
            g, f = getattr(got, field), getattr(fresh, field)
            assert g.dtype == f.dtype and g.tobytes() == f.tobytes(), (t, field)


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_build_peak_memory(table11, traced_peak, threads):
    # each c's cosets are rebuilt straight into its slice of the outputs: beyond the
    # batch's own arrays the build holds only a c's candidates, fold and transform
    # per thread, and no list of per-c groups
    peak, batch = traced_peak(lambda: symbols_up_to(table11, 11, 10 ** 7, tol=1e-10, threads=threads))
    # a batch holds exactly these arrays; d is read off coset_arrays, not stored
    assert [f.name for f in dataclasses.fields(batch)] == ["T", "z", "norms", "values", *PER_GROUP]
    own = sum(getattr(batch, field).nbytes for field in ("norms", "values") + PER_GROUP)
    assert len(batch.norms) == 795910
    assert peak <= own + 2 * 2 ** 20, (peak, own)


def test_inverse_table_rejects_int64_overflow():
    # 3037000500^2 > 2^63 - 1; raised before any array is built
    assert 3037000499 ** 2 < 1 << 63 <= 3037000500 ** 2
    with pytest.raises(ValueError, match="int64"):
        _inverse_table(3037000500)


def test_batch_thread_determinism(table11):
    b1 = symbols_up_to(table11, 11, 3 * 10 ** 4, tol=1e-10, threads=1)
    b4 = symbols_up_to(table11, 11, 3 * 10 ** 4, tol=1e-10, threads=4)
    assert np.array_equal(b1.values, b4.values)
    assert np.array_equal(b1.cs, b4.cs)


@pytest.mark.parametrize(
    "name, N, T, z", [("table11", 11, 10 ** 5, 1j), ("table37", 37, 10 ** 5, 0.25 + 0.9j)]
)
def test_batch_fills_from_one_coset_enumeration(request, monkeypatch, name, N, T, z):
    # every group comes from one coset_arrays pass, read on this thread while the
    # workers form the symbols; every column is the same bytes at any thread count
    table = request.getfixturevalue(name)
    calls = []

    def traced(*args):
        calls.append(args)
        yield from coset_arrays(*args)

    b1 = symbols_up_to(table, N, T, z, tol=1e-10, threads=1)
    monkeypatch.setattr(modsym, "coset_arrays", traced)
    b4 = symbols_up_to(table, N, T, z, tol=1e-10, threads=4)
    assert len(calls) == 1
    for field in PER_SYMBOL + PER_GROUP:
        g, w = getattr(b4, field), getattr(b1, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


def test_batch_count_and_restrict(batch11_1e4):
    sub = batch11_1e4.restricted(122)
    assert sub.count == 3
    assert batch11_1e4.count == 795  # frozen from the exhaustive enumeration


def test_samples_from_batch(batch11_1e4):
    # the identity coset is implied by the batch: counted, with symbol 0
    sub = batch11_1e4.restricted(122)
    values = np.concatenate([[0j], sub.values])
    assert len(values) == sub.count == 3
    assert values[0] == 0
    alpha, beta = _alpha_beta(values[1:])
    assert np.array_equal(values[1:], alpha + 1j * beta)


def test_eichler_growth_monitored(batch11_1e4):
    # |<g,f>| = O(log norm): ratio bounded on the batch (recorded constant)
    ratios = np.abs(batch11_1e4.values) / np.log(batch11_1e4.norms)
    assert float(np.max(ratios)) < 0.75
