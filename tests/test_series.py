"""Summatory functions, smoothing, twisted Eisenstein sums, constants."""

import math

import numpy as np
import pytest

from modsymdist import modsym, series
from modsymdist.cosets import volume
from modsymdist.modsym import SymbolBatch, antiderivative, symbol_stream, symbols_up_to
from modsymdist.series import (
    AsymptoticConstant,
    WeightSpec,
    _SUM_CHUNK,
    _block_sums,
    _sum_reports,
    asymptotic_constants,
    eisenstein_twisted,
    grid_sums,
    sharp_sum,
    smooth_cutoff,
    smoothed_sum,
)

VOL11 = 4 * math.pi

# Lengths around multiples of SPAN straddle block boundaries at every block size
# that divides it: every power of two up to 2^16.
SPAN = 1 << 16


def _blocks(*arrays):
    """Per run of _SUM_CHUNK positions, a tuple of each array's entries there."""
    for s in range(0, len(arrays[0]), _SUM_CHUNK):
        yield tuple(a[s : s + _SUM_CHUNK] for a in arrays)


def _exact_prefix_sums(values, cuts):
    """math.fsum(values[:n]) bit for bit, for every n in cuts. Reference only.

    Each prefix is one _block_sums pass over views of at most _SUM_CHUNK
    of its values, so a prefix that trips the guard is math.fsum of it.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    cuts = [int(n) for n in cuts]
    if any(n < 0 or n > len(v) for n in cuts):
        raise ValueError(f"cuts must lie in [0, {len(v)}]")

    def prefix_sum(n):
        starts = range(0, n, _SUM_CHUNK)
        (total,), _ = _block_sums(lambda: ((v[b : min(b + _SUM_CHUNK, n)],) for b in starts), 1)
        return total

    sums = {n: prefix_sum(n) for n in sorted(set(cuts))}
    return [sums[n] for n in cuts]


def _exact_sum(values):
    """Correctly rounded sum of a real array: the one-cut case of _exact_prefix_sums."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    return _exact_prefix_sums(v, [len(v)])[0]


def cfsum(values):
    """Exact sum of a complex array, each part rounded once. Reference only.

    The real and imaginary parts are two exact streams of _block_sums.
    """
    v = np.asarray(values)
    if v.dtype.kind != "c":
        return complex(_exact_sum(v), 0.0)
    v = v.astype(np.complex128, copy=False).reshape(-1)
    return complex(*_block_sums(lambda: ((b.real, b.imag) for (b,) in _blocks(v)), 2)[0])


def test_weight_parse_roundtrip():
    # each spec text parses to the weight it names
    named = {"one": ("one", 0, 0), "f:1,0": ("f_power", 1, 0), "f:2,0": ("f_power", 2, 0),
             "ab:2,0": ("alphabeta", 2, 0), "abs2:1": ("abs2m", 1, 0)}
    for txt, fields in named.items():
        assert WeightSpec.parse(txt) == WeightSpec(*fields)
    with pytest.raises(ValueError):
        WeightSpec.parse("nope:1")
    with pytest.raises(ValueError):
        WeightSpec.parse("f:4,4")  # degree guard
    with pytest.raises(ValueError):
        WeightSpec("f_power", -1, 0)


def test_weight_apply_identities():
    v = np.array([1 + 2j, -0.5 + 0.25j])
    w = WeightSpec("f_power", 1, 1).apply(v)
    assert np.allclose(w, np.abs(v) ** 2)
    ab = WeightSpec("alphabeta", 2, 0).apply(v)
    # alpha = i Im v: alpha^2 = -Im(v)^2 <= 0
    assert np.allclose(ab, -(v.imag ** 2))
    assert WeightSpec("one").at_zero() == 1
    assert WeightSpec("f_power", 1, 0).at_zero() == 0
    assert WeightSpec("abs2m", 1).at_zero() == 0
    assert WeightSpec("f_power", 0, 0).at_zero() == 1  # 0^0 = 1


def test_smooth_cutoff_exact_endpoints_and_shape():
    for U in (2, 10, 100, 1000):
        assert smooth_cutoff(1 - 1 / U, U) == 1.0
        assert smooth_cutoff(1 + 1 / U, U) == 0.0
        assert smooth_cutoff(0.0, U) == 1.0
        assert smooth_cutoff(2.0, U) == 0.0
        ts = np.linspace(1 - 1 / U, 1 + 1 / U, 101)
        vals = smooth_cutoff(ts, U)
        assert np.all(np.diff(vals) <= 0)  # monotone decreasing
        assert smooth_cutoff(1.0, U) == pytest.approx(0.5, abs=1e-12)
    for U in (1, math.nan, math.inf, -math.inf):  # every bound is written so that NaN fails it
        with pytest.raises(ValueError, match="U must be >= 2 and finite"):
            smooth_cutoff(0.5, U)


def _adversarial_sums():
    rng = np.random.default_rng(7)
    big = rng.standard_normal(1000) * 1e200
    yield np.concatenate([big, -big, [1.0, 1e-300]])  # +-1e200 cancellation
    sign = rng.choice([-1.0, 1.0], 100000)
    yield sign * 10.0 ** rng.uniform(-300, 300, 100000)  # exponents 1e-300..1e300
    yield rng.standard_normal(1000) * 5e-321  # subnormals
    yield np.array([5e-324, -5e-324, 5e-324, 2.0 ** -1074])
    yield np.array([1.0, 2.0 ** -53])  # exact tie: rounds to even
    yield np.array([1.0, 2.0 ** -53, 2.0 ** -53])
    yield np.array([1.0, 2.0 ** -53, 2.0 ** -106])  # just above the tie
    yield np.array([1e307] * 5 + [-1e307] * 5)
    x, y = rng.standard_normal((2, 1 << 17))
    for i in range(5):  # the 25 products of a 4x4 moment table
        for j in range(5):
            yield x ** i * y ** j
    for n in (SPAN - 1, SPAN, SPAN + 1):  # around a block boundary
        yield rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)
    yield np.zeros(0)
    yield np.array([-0.0])


def test_exact_sum_is_fsum_bit_for_bit():
    for v in _adversarial_sums():
        assert _exact_sum(v).hex() == math.fsum(v).hex(), len(v)


def test_exact_sum_non_finite_as_fsum():
    with pytest.raises(ValueError) as ours:
        _exact_sum(np.array([math.inf, -math.inf]))
    with pytest.raises(ValueError) as ref:
        math.fsum(np.array([math.inf, -math.inf]))
    assert str(ours.value) == str(ref.value)
    assert _exact_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(_exact_sum(np.array([math.nan, 1.0])))
    with pytest.raises(OverflowError):  # math.fsum's intermediate overflow
        _exact_sum(np.array([1e308, 1e308, -1e308]))


def _split_edge_sums():
    """Blocks at the edges of a two-half split: subnormals, the top exponents, all-ones mantissas."""
    tiny = 2.0 ** -1074
    # subnormals whose bins cancel to 0
    yield np.array([3 * tiny, -3 * tiny, 2.0 ** -1060, -(2.0 ** -1060), 1.0])
    yield np.array([3 * tiny, -3 * tiny])
    rng = np.random.default_rng(29)
    yield np.concatenate([rng.integers(-(2 ** 52), 2 ** 52, 5000) * tiny, rng.standard_normal(100)])
    # where a Veltkamp split (v * (2^27 + 1)) would overflow: from 2^996 up
    below = np.nextafter(2.0 ** 996, 0)
    yield np.array([2.0 ** 995, -(2.0 ** 995) * 1.5, 3.0, below])
    yield np.array([2.0 ** 996, 1.0, -(2.0 ** 995)])
    yield np.array([2.0 ** 997, -(2.0 ** 997) * (1 - 2.0 ** -52), 2.0 ** 996, 1e-300])
    yield np.full(_SUM_CHUNK, below)  # full bins at the top exponents
    yield np.full(_SUM_CHUNK + 3, -below)
    top = 2 - 2.0 ** -52  # every mantissa bit set: a rounded high half would round up to 2
    yield np.full(_SUM_CHUNK, top)
    yield np.array([top, -top * 2.0 ** 900, top * 2.0 ** -1000, 2.0 ** -52, 1 - 2.0 ** -53])
    yield np.concatenate([np.full(_SUM_CHUNK - 1, -top), [2.0 ** 60]])
    n = 3 * _SUM_CHUNK + 17
    yield rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 290, n)  # mixed magnitudes
    yield rng.choice([-1.0, 1.0], n) * 10.0 ** rng.integers(-300, 291, n)


def test_exact_sum_split_edges_are_fsum(monkeypatch):
    # subnormals, values from 2^996 up and full blocks alike: the bins decide, never math.fsum
    cases = [(v, math.fsum(v)) for v in _split_edge_sums()]
    monkeypatch.setattr(math, "fsum", lambda v: pytest.fail("fell back to math.fsum"))
    for v, want in cases:
        assert _exact_sum(v).hex() == want.hex(), v[:3]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_non_finite_turns_exact_off(bad):
    # after a block of normal numbers and after one with a subnormal alike
    for first in (np.ones(5), np.array([2.0 ** -1074, 1.0])):
        acc = series._ExactSum()
        acc.add(first)
        assert acc.exact
        acc.add(np.array([1.0, bad, 2.0]))
        assert not acc.exact and acc.count == len(first) + 3


def test_exact_sum_cancelled_overflow_as_fsum():
    # the large bins cancel to 0, but math.fsum overflows on the way: the guard sees the
    # magnitudes fed, not the folded bins, in one block or spread over several
    v = np.array([2.0 ** 1023, 1.5 * 2.0 ** 1022, 1.5 * 2.0 ** 1022] * 2) * np.repeat([1.0, -1.0], 3)
    with pytest.raises(OverflowError) as ref:
        math.fsum(v)
    for size in (len(v), 2, 1):
        with pytest.raises(OverflowError) as ours:
            _block_sums(lambda: ((v[s : s + size],) for s in range(0, len(v), size)), 1)
        assert str(ours.value) == str(ref.value)


def _fed_whole_and_in_pieces(v):
    """_ExactSums fed v in one add and in pieces of uneven length."""
    whole, pieces = series._ExactSum(), series._ExactSum()
    whole.add(v)
    for s in range(0, len(v), 5 * _SUM_CHUNK // 3):
        pieces.add(v[s : s + 5 * _SUM_CHUNK // 3])
    return whole, pieces


@pytest.mark.parametrize("carry", [_SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK])
def test_exact_sum_carries_are_fsum(monkeypatch, carry):
    # the float bins carried into the integer total every `carry` values or so, not every 2^26
    cases = [(v, math.fsum(v)) for v in (*_adversarial_sums(), *_split_edge_sums())]
    monkeypatch.setattr(series, "_CARRY", carry)
    carries = []
    carry_fn = series._ExactSum._carry
    monkeypatch.setattr(series._ExactSum, "_carry", lambda acc: (carries.append(acc.fed), carry_fn(acc)))
    for v, want in cases:
        for acc in _fed_whole_and_in_pieces(v):
            if acc.exact:
                assert acc.value().hex() == want.hex(), len(v)
            else:  # only a sum that reaches 2^1019 gives up
                assert np.sum(np.abs(v)) >= 2.0 ** 1019
    assert max(carries) <= carry and carries.count(0) < len(carries) // 2


def test_exact_sum_add_is_two_bincounts(monkeypatch):
    # one segment: a bin count per half and no scaling into integers, which waits for a carry
    calls = []
    for name in ("bincount", "ldexp"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    acc = series._ExactSum()
    acc.add(np.random.default_rng(31).standard_normal(_SUM_CHUNK))
    assert calls == ["bincount", "bincount"]
    acc.value()
    assert calls[2:] == ["ldexp", "ldexp"]


def _assert_prefixes_are_fsum(v, cuts):
    got = _exact_prefix_sums(v, cuts)
    assert [g.hex() for g in got] == [math.fsum(v[:n]).hex() for n in cuts], (len(v), cuts)


def test_exact_prefix_sums_are_fsum_of_each_prefix(monkeypatch):
    rng = np.random.default_rng(13)
    for v in _adversarial_sums():
        n = len(v)
        _assert_prefixes_are_fsum(v, [0, n, n // 3, 0, n // 2, n // 3, n])
    n = 3 * _SUM_CHUNK + 11
    cases = []
    for trial in range(3):
        v = rng.permutation(rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n))
        cuts = sorted(rng.integers(0, n + 1, 6).tolist())
        cuts += [0, n, 5, 7, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 3]
        cases.append((v, cuts, [math.fsum(v[:c]).hex() for c in cuts]))
    # finite data never falls back: every cut is read off the bins
    monkeypatch.setattr(math, "fsum", lambda v: pytest.fail("fell back to math.fsum"))
    for v, cuts, want in cases:
        assert [g.hex() for g in _exact_prefix_sums(v, cuts)] == want
        # any order, results in the order asked
        assert [g.hex() for g in _exact_prefix_sums(v, cuts[::-1])] == want[::-1]


def test_exact_prefix_sums_one_cut_is_exact_sum():
    v = np.random.default_rng(3).standard_normal(1000)
    assert _exact_prefix_sums(v, [1000])[0].hex() == _exact_sum(v).hex()
    assert _exact_prefix_sums(v, []) == []
    assert _exact_prefix_sums(np.zeros(0), [0]) == [0.0]
    for bad in (-1, 1001):
        with pytest.raises(ValueError):
            _exact_prefix_sums(v, [bad])


@pytest.mark.parametrize("at", [3, SPAN + 5])
def test_exact_prefix_sums_non_finite_per_prefix(at):
    # a prefix before the offending value sums exactly; from it on, fsum decides
    n = 2 * SPAN + 7
    base = np.random.default_rng(at).standard_normal(n)
    cases = [
        ([math.inf], math.inf),
        ([math.nan], "nan"),
        ([math.inf, -math.inf], ValueError),
        ([1e308, 1e308, -1e308], OverflowError),
    ]
    for bad, expect in cases:
        v = base.copy()
        v[at : at + len(bad)] = bad
        end = at + len(bad)
        before = [0, at - 1, at]
        _assert_prefixes_are_fsum(v, before)
        if isinstance(expect, type):
            for cut in (end, n):
                with pytest.raises(expect):
                    _exact_prefix_sums(v, before + [cut])
        else:
            got = _exact_prefix_sums(v, before + [end, n])
            assert [g.hex() for g in got[:3]] == [math.fsum(v[:c]).hex() for c in before]
            assert all(math.isnan(g) if expect == "nan" else g == expect for g in got[3:])


def test_cfsum_parts_are_exact(batch11_1e4):
    v = batch11_1e4.values
    assert cfsum(v) == complex(math.fsum(v.real), math.fsum(v.imag))
    assert cfsum(v.real) == complex(math.fsum(v.real), 0.0)


def test_sharp_sum_weight_one_hand_count(batch11_1e4):
    rep = sharp_sum(batch11_1e4, WeightSpec("one"), 122)
    assert rep.count == 3
    assert rep.value == 3  # identity contributes 1 for weight one
    rep2 = sharp_sum(batch11_1e4, WeightSpec("f_power", 1, 0), 122)
    assert rep2.count == 3  # identity still counted, contributes 0


def test_sharp_sum_shell_additivity(batch11_1e4):
    w = WeightSpec("f_power", 1, 0)
    s1 = sharp_sum(batch11_1e4, w, 3000).value
    s2 = sharp_sum(batch11_1e4, w, 10 ** 4).value
    shell_mask = (batch11_1e4.norms > 3000) & (batch11_1e4.norms <= 10 ** 4)
    shell = cfsum(w.apply(batch11_1e4.values[shell_mask]))
    assert abs((s2 - s1) - shell) <= 1e-12 * max(1.0, abs(s2))


def test_sharp_sum_permutation_free_reduction(batch11_1e4):
    # fsum accumulators make the reported moments/sums exact, so reversing
    # the sample order cannot change them
    w = WeightSpec("abs2m", 1)
    fwd = sharp_sum(batch11_1e4, w).value
    rev = cfsum(w.apply(batch11_1e4.values[::-1])) + w.at_zero()
    assert fwd == rev


def test_smoothed_sandwich(batch11_1e5):
    T = 10 ** 4
    for wtxt in ("one", "abs2:1", "f:1,1"):  # the nonnegative weight kinds
        w = WeightSpec.parse(wtxt)
        for U in (10, 100):
            lo = sharp_sum(batch11_1e5, w, T * (1 - 1 / U)).value.real
            hi = sharp_sum(batch11_1e5, w, T * (1 + 1 / U)).value.real
            mid = smoothed_sum(batch11_1e5, w, T, U).value.real
            assert lo <= mid <= hi


def test_smoothed_approaches_sharp(batch11_1e5):
    T = 10 ** 4
    w = WeightSpec("one")
    sharp = sharp_sum(batch11_1e5, w, T).value.real
    smooth = smoothed_sum(batch11_1e5, w, T, 1000).value.real
    boundary = sharp_sum(batch11_1e5, w, T * 1.001).value.real - sharp_sum(
        batch11_1e5, w, T * 0.999
    ).value.real
    assert abs(smooth - sharp) <= boundary + 1e-9


def test_smoothed_requires_coverage(batch11_1e4):
    with pytest.raises(ValueError):
        smoothed_sum(batch11_1e4, WeightSpec("one"), 10 ** 4, 10)
    for U in (1, math.nan, math.inf):
        with pytest.raises(ValueError, match="U must be >= 2 and finite"):
            smoothed_sum(batch11_1e4, WeightSpec("one"), 2000, U)


def test_norm_bound_below_identity_refused(batch11_1e4):
    # the identity coset has norm 1, so no sum or view exists below T = 1
    for T in (0.5, 0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="T must be >= 1"):
            sharp_sum(batch11_1e4, WeightSpec("one"), T)
        with pytest.raises(ValueError, match="T must be >= 1"):
            smoothed_sum(batch11_1e4, WeightSpec("one"), T, 10)
        with pytest.raises(ValueError, match="T must be >= 1"):
            eisenstein_twisted(batch11_1e4, 2, 0, 0, T)
        with pytest.raises(ValueError, match="T must be >= 1"):
            batch11_1e4.restricted(T)
    # T = 1 holds the identity alone
    assert sharp_sum(batch11_1e4, WeightSpec("one"), 1).count == 1
    assert batch11_1e4.restricted(1).count == 1
    assert eisenstein_twisted(batch11_1e4, 2, 0, 0, 1).value == 1


def test_eisenstein_dominant_identity_term(batch11_1e5):
    # m=n=0, z=i, s=10: the identity term is 1, the rest is tiny
    rep = eisenstein_twisted(batch11_1e5, 10.0, 0, 0, 10 ** 4)
    assert abs(rep.value - 1) < 1e-3
    assert rep.tail_estimate < 1e-6


def test_eisenstein_reorder_invariance(batch11_1e5, table11):
    # absolute convergence: reversing the (finite) term order changes nothing
    rep = eisenstein_twisted(batch11_1e5, 2.0, 1, 0, 10 ** 4)
    b = batch11_1e5.restricted(10 ** 4)
    terms = (b.values ** 1) * (1.0 / b.norms) ** 2.0
    rev = complex(math.fsum(terms.real[::-1]), math.fsum(terms.imag[::-1]))
    assert abs(rep.value - rev) < 1e-12


def test_eisenstein_rejects_low_s(batch11_1e4):
    with pytest.raises(ValueError):
        eisenstein_twisted(batch11_1e4, 1.0, 1, 0)
    with pytest.raises(ValueError):
        eisenstein_twisted(batch11_1e4, 0.5 + 3j, 1, 1)
    for s in (math.nan, complex(math.nan, 0), complex(2, math.nan), math.inf, complex(2, -math.inf)):
        with pytest.raises(ValueError, match="s must be finite with Re"):
            eisenstein_twisted(batch11_1e4, s, 1, 0, 2000)


def test_eisenstein_rejects_negative_exponents(batch11_1e4):
    for m, n in ((-1, 0), (0, -1), (-2, -2)):
        with pytest.raises(ValueError, match="must be >= 0"):
            eisenstein_twisted(batch11_1e4, 2.0, m, n)
    # m + n > 6 is summed like any other pair
    rep = eisenstein_twisted(batch11_1e4, 2.0, 4, 3, 10 ** 3)
    b = batch11_1e4.restricted(10 ** 3)
    terms = b.values ** 4 * np.conj(b.values) ** 3 * (1.0 / b.norms) ** complex(2.0)
    assert rep.value == cfsum(terms)


def test_asymptotic_constants_table(table11):
    nfsq = 0.0469001478734952  # 11a lattice value
    h_i = antiderivative(table11, 1j, 1e-13)
    # alphabeta(2,0): -8 pi^2 ||f||^2 / vol^2, negative since alpha^2 <= 0
    c_ab = asymptotic_constants(WeightSpec("alphabeta", 2, 0), VOL11, 1.0, norm_f_sq=nfsq)
    assert c_ab.leading.real < 0
    assert c_ab.leading.real == pytest.approx(-8 * math.pi ** 2 * nfsq / VOL11 ** 2, rel=1e-12)
    assert c_ab.power_of_logT == 1
    # abs2m(1) = -(ab(2,0) + ab(0,2))
    c_abs = asymptotic_constants(WeightSpec("abs2m", 1), VOL11, 1.0, norm_f_sq=nfsq)
    c_ab2 = asymptotic_constants(WeightSpec("alphabeta", 0, 2), VOL11, 1.0, norm_f_sq=nfsq)
    assert c_abs.leading == pytest.approx(-(c_ab.leading + c_ab2.leading), rel=1e-12)
    assert c_abs.power_of_logT == 1
    # odd alphabeta: zero constant, order marker
    c_odd = asymptotic_constants(WeightSpec("alphabeta", 1, 1), VOL11, 1.0, norm_f_sq=nfsq)
    assert c_odd.leading == 0 and not c_odd.exact and c_odd.power_of_logT < 1 + 1
    # f_power(1,0) and (2,0) built from H(z); (2,0) is sign-free
    c10 = asymptotic_constants(WeightSpec("f_power", 1, 0), VOL11, 1.0, h_value=h_i)
    c20 = asymptotic_constants(WeightSpec("f_power", 2, 0), VOL11, 1.0, h_value=h_i)
    assert c10.leading == pytest.approx(h_i / VOL11)
    assert c20.leading == pytest.approx(h_i ** 2 / VOL11)
    assert c20.leading == pytest.approx((-h_i) ** 2 / VOL11)
    # f_power(1,1) = abs2m(1)
    c11 = asymptotic_constants(WeightSpec("f_power", 1, 1), VOL11, 1.0, norm_f_sq=nfsq)
    assert c11.leading == c_abs.leading
    with pytest.raises(ValueError):
        asymptotic_constants(WeightSpec("f_power", 3, 1), VOL11, 1.0, norm_f_sq=nfsq)
    with pytest.raises(ValueError):
        asymptotic_constants(WeightSpec("abs2m", 1), VOL11, 1.0)  # missing norm


def test_gaussian_moment_prefactors():
    # (2m)!/(m! 2^m) path: ab(2,0) vs ab(4,0) ratio carries 4!/(2!*4) = 3
    nfsq = 0.05
    c2 = asymptotic_constants(WeightSpec("alphabeta", 2, 0), VOL11, 1.0, norm_f_sq=nfsq)
    c4 = asymptotic_constants(WeightSpec("alphabeta", 4, 0), VOL11, 1.0, norm_f_sq=nfsq)
    ratio = c4.leading / (c2.leading ** 2 * VOL11)  # strips the shared factors
    assert ratio == pytest.approx(3.0, rel=1e-12)


def test_sum_report_error_budget_flag(batch11_1e4):
    rep = sharp_sum(batch11_1e4, WeightSpec("f_power", 1, 0), 10 ** 4)
    assert rep.err_budget >= 0
    assert rep.err_budget < 1e-6  # tol 1e-12 batch: tiny budget


def test_summatory_functions_take_one_pass(batch11_1e5, monkeypatch):
    # value and budget come from one _block_sums pass: Re, Im unless the kind's terms are
    # real (one, abs2m), then the budget from degree 1 on
    streams = []
    block_sums = series._block_sums

    def counted(blocks, k):
        streams.append(k)
        return block_sums(blocks, k)

    monkeypatch.setattr(series, "_block_sums", counted)
    for wtxt, k in (("one", 1), ("f:0,0", 2), ("f:2,0", 3), ("abs2:1", 2)):
        w = WeightSpec.parse(wtxt)
        with monkeypatch.context() as mp:
            if not w.total_degree:  # no truncation bound is spelled out
                mp.setattr(SymbolBatch, "per_symbol", lambda *a: pytest.fail("read the bounds"))
            for run in (lambda: sharp_sum(batch11_1e5, w, 2 * 10 ** 4),
                        lambda: smoothed_sum(batch11_1e5, w, 2 * 10 ** 4, 10)):
                rep = run()
                assert streams == [k], (wtxt, rep.mode)
                streams.clear()
                if not w.total_degree:
                    assert rep.err_budget.hex() == "0x0.0p+0" and not rep.err_budget_exceeded
                else:
                    assert 0 < rep.err_budget < 1e-6


# ---------------------------------------------------------------------------
# Block pipeline against the full-array code it replaced
# ---------------------------------------------------------------------------

BLOCK_LENGTHS = [SPAN - 1, SPAN, SPAN + 1, 3 * SPAN + 5]
BLOCK_BYTES = 16 * _SUM_CHUNK  # one block of complex values


def _hexed(r):
    if isinstance(r, (tuple, list)):
        return [_hexed(t) for t in r]
    if isinstance(r, complex):
        return r.real.hex(), r.imag.hex()
    return r.hex() if isinstance(r, float) else r


def _outcome(fn):
    """fn()'s result in hex, or the type and message of what math.fsum raised."""
    try:
        return _hexed(fn())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _fsum_c(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _weighted_sum_reference(batch, weight, mask, extra=None, identity_factor=1.0):
    """_sum_report's value over whole masked arrays, math.fsum for the exact sums. Reference only."""
    terms = weight.apply(batch.values[mask])
    if extra is not None:
        terms = terms * extra
    return _fsum_c(terms) + weight.at_zero() * identity_factor


def _error_budget_reference(batch, weight, mask):
    """_sum_report's err_budget over whole masked arrays. Reference only."""
    deg = weight.total_degree
    if deg == 0:
        return 0.0
    v = np.abs(batch.values[mask])
    scale = np.maximum(v, 1.0) ** (deg - 1)
    return float(deg * math.fsum(scale * batch.per_symbol(batch.group_err_bounds)[mask]))


def _sharp_reference(batch, weight, T):
    """(value, count, err_budget) of sharp_sum over whole arrays. Reference only."""
    mask = batch.norms <= T
    value = _weighted_sum_reference(batch, weight, mask)
    return value, int(mask.sum()) + 1, _error_budget_reference(batch, weight, mask)


def _smoothed_reference(batch, weight, T, U):
    """(value, count, err_budget) of smoothed_sum over whole arrays. Reference only."""
    mask = batch.norms <= T * (1 + 1.0 / U)
    phi = smooth_cutoff(batch.norms[mask] / T, U)
    value = _weighted_sum_reference(batch, weight, mask, extra=phi,
                                    identity_factor=smooth_cutoff(1.0 / T, U))
    return value, int((batch.norms <= T).sum()) + 1, _error_budget_reference(batch, weight, mask)


def _eisenstein_reference(batch, s, m, n, T_max):
    """(value, tail_estimate, count) of eisenstein_twisted over whole arrays. Reference only."""
    y = batch.z.imag
    mask = batch.norms <= T_max
    v = batch.values[mask]
    norms = batch.norms[mask]
    terms = (v ** m) * (np.conj(v) ** n) * (y / norms) ** s
    value = _fsum_c(terms)
    if m == 0 and n == 0:
        value += complex(y) ** s
    mags = np.abs(terms)
    last = math.fsum(mags[norms > T_max / 10])
    prev = math.fsum(mags[(norms > T_max / 100) & (norms <= T_max / 10)])
    if prev > 0 and last < prev:
        ratio = last / prev
        return value, last * ratio / (1 - ratio), int(mask.sum()) + 1
    return value, last, int(mask.sum()) + 1


def _synthetic_batch(n, seed, T=1e6):
    """n random symbols with norms in [2, T]; the second block's norms all exceed 0.9 T."""
    rng = np.random.default_rng(seed)
    norms = rng.uniform(2.0, T, n)
    second = slice(_SUM_CHUNK, 2 * _SUM_CHUNK)
    norms[second] = rng.uniform(0.9 * T, T, len(norms[second]))
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # c groups of up to half a block, so some of them straddle block boundaries
    ends = np.unique(np.append(np.cumsum(rng.integers(1, _SUM_CHUNK // 2, n // 1000 + 1)), n))
    counts = np.diff(ends[ends <= n], prepend=0)
    groups = len(counts)
    return SymbolBatch(T=T, z=1j, norms=norms, values=values, group_cs=11 * np.arange(1, groups + 1),
                       group_counts=counts, group_err_bounds=rng.uniform(0, 1e-10, groups))


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
def test_blocked_sums_match_full_arrays(n):
    # T/2 skips the second block whole; 1.5 lies below every norm, so the mask is empty
    batch = _synthetic_batch(n, seed=n)
    for wtxt in ("one", "f:2,0", "abs2:1"):
        w = WeightSpec.parse(wtxt)
        for T in (batch.T, batch.T / 2, 1.5):
            rep = sharp_sum(batch, w, T)
            assert _hexed((rep.value, rep.count, rep.err_budget)) == _hexed(_sharp_reference(batch, w, T))
            # any norm bound: the terms above it are left out, the count still reads T
            mask = batch.norms <= 0.7 * T
            (rep,) = _sum_reports(batch, w, [(T, 0.7 * T)])
            want = (_weighted_sum_reference(batch, w, mask), int((batch.norms <= T).sum()) + 1,
                    _error_budget_reference(batch, w, mask))
            assert _hexed((rep.value, rep.count, rep.err_budget)) == _hexed(want)
        for T, U in ((batch.T / 1.25, 4), (batch.T / 2, 10), (1.5, 10)):
            rep = smoothed_sum(batch, w, T, U)
            assert _hexed((rep.value, rep.count, rep.err_budget)) == _hexed(_smoothed_reference(batch, w, T, U))
    for s, m, k in ((2.0, 1, 1), (2.0, 0, 0), (1.5 + 2j, 2, 0)):
        for T in (batch.T, batch.T / 2, 1.5):
            rep = eisenstein_twisted(batch, s, m, k, T)
            want = _eisenstein_reference(batch, complex(s), m, k, T)
            assert _hexed((rep.value, rep.tail_estimate, rep.count)) == _hexed(want)


@pytest.mark.parametrize("blocks", [1, 2])
def test_sums_when_the_kept_samples_end_on_a_block_boundary(blocks):
    # the first `blocks` blocks hold every norm <= 1e5, the rest start at 3e5: at T =
    # 1.5e5 the sharp, smoothed (U = 10, bound 1.65e5) and Eisenstein masks all end
    # exactly on a block boundary, and the blocks after it keep nothing
    batch = _synthetic_batch(3 * _SUM_CHUNK + 5, seed=blocks)
    cut = blocks * _SUM_CHUNK
    batch.norms[:cut] = np.random.default_rng(blocks).permutation(np.linspace(2.0, 1e5, cut))
    batch.norms[cut:] = np.linspace(3e5, batch.T, len(batch.norms) - cut)
    T = 1.5e5
    for wtxt in ("one", "f:2,0", "abs2:1"):
        w = WeightSpec.parse(wtxt)
        rep = sharp_sum(batch, w, T)
        assert rep.count == cut + 1
        assert _hexed((rep.value, rep.count, rep.err_budget)) == _hexed(_sharp_reference(batch, w, T))
        rep = smoothed_sum(batch, w, T, 10)
        assert rep.count == cut + 1
        assert _hexed((rep.value, rep.count, rep.err_budget)) == _hexed(_smoothed_reference(batch, w, T, 10))
    for s, m, k in ((2.0, 1, 1), (2.0, 0, 0), (1.5 + 2j, 2, 0)):
        rep = eisenstein_twisted(batch, s, m, k, T)
        assert rep.count == cut + 1
        want = _eisenstein_reference(batch, complex(s), m, k, T)
        assert _hexed((rep.value, rep.tail_estimate, rep.count)) == _hexed(want)


@pytest.mark.parametrize("bad", [[math.inf], [math.nan], [math.inf, -math.inf], [1e308, 1e308, -1e308]])
def test_blocked_sums_non_finite_as_fsum(bad):
    # the offending values sit in the second block; every sum behaves as math.fsum
    batch = _synthetic_batch(2 * _SUM_CHUNK + 7, seed=5)
    at = _SUM_CHUNK + 3
    batch.values[at : at + len(bad)] = bad
    with np.errstate(all="ignore"):
        v = batch.values
        assert _outcome(lambda: cfsum(v)) == _outcome(lambda: _fsum_c(v))
        for w in (WeightSpec("f_power", 1, 0), WeightSpec("f_power", 2, 0)):
            # the value streams come first: what they raise is raised before the budget's

            def sharp():
                rep = sharp_sum(batch, w, batch.T)
                return rep.value, rep.count, rep.err_budget

            def smoothed():
                rep = smoothed_sum(batch, w, batch.T / 1.25, 4)
                return rep.value, rep.count, rep.err_budget

            assert _outcome(sharp) == _outcome(lambda: _sharp_reference(batch, w, batch.T))
            assert _outcome(smoothed) == _outcome(lambda: _smoothed_reference(batch, w, batch.T / 1.25, 4))

        def eisenstein():
            rep = eisenstein_twisted(batch, 2.0, 1, 0)
            return rep.value, rep.tail_estimate, rep.count

        assert _outcome(eisenstein) == _outcome(lambda: _eisenstein_reference(batch, 2 + 0j, 1, 0, batch.T))
    assert _outcome(lambda: cfsum(np.array(bad, dtype=complex))) == _outcome(lambda: complex(math.fsum(bad), 0.0))


def test_block_sums_any_blocking_and_streams():
    # exact bins: how a stream is cut into blocks, and what runs beside it, never matters
    rng = np.random.default_rng(17)
    for v in _adversarial_sums():
        cuts = np.sort(rng.integers(0, len(v) + 1, 4))
        parts = np.split(v, cuts)  # empty parts and parts longer than one chunk included
        sums, _ = _block_sums(lambda: ((p, p[::2]) for p in parts), 2)
        halves = np.concatenate([p[::2] for p in parts])
        assert [s.hex() for s in sums] == [math.fsum(v).hex(), math.fsum(halves).hex()]
    # a pass over the first i blocks reads each stream's sum so far
    v = rng.standard_normal(3 * _SUM_CHUNK)
    v[2 * _SUM_CHUNK] = math.inf  # both streams trip in their third block
    for i in range(1, 4):
        starts = range(0, i * _SUM_CHUNK, _SUM_CHUNK)
        (a, b), _ = _block_sums(lambda: ((v[s : s + _SUM_CHUNK], -v[s : s + 100]) for s in starts), 2)
        assert a.hex() == math.fsum(v[: i * _SUM_CHUNK]).hex()
        heads = [-v[k : k + 100] for k in starts]
        assert b.hex() == math.fsum(np.concatenate(heads)).hex()


def test_block_sums_count_each_stream():
    # counts[j] is stream j's length, also when its sum tripped and fell back to math.fsum
    v = np.random.default_rng(23).standard_normal(2 * _SUM_CHUNK + 7)
    v[_SUM_CHUNK + 3] = math.inf  # the first stream trips in its second block

    def blocks():
        for s in range(0, len(v), _SUM_CHUNK):
            yield v[s : s + _SUM_CHUNK], -v[s : s + 2], v[:0]

    sums, counts = _block_sums(blocks, 3)
    assert counts == [len(v), 6, 0]
    heads = np.concatenate([-v[s : s + 2] for s in range(0, len(v), _SUM_CHUNK)])
    assert sums == [math.inf, math.fsum(heads), 0.0]


def test_blocked_sums_peak_memory(batch11_1e7, traced_peak, fixed_bytes):
    # the norm masks, the counts, the weight, the cutoff and the terms exist one block
    # at a time, not per symbol (a full-length mask is 3 blocks here); beside them
    # only the bins of the sums' 3 and 4 streams are held
    w = WeightSpec("f_power", 2, 0)
    peak, _ = traced_peak(lambda: smoothed_sum(batch11_1e7, w, 9e6, 10))
    assert peak <= 7 * BLOCK_BYTES + fixed_bytes(3), peak
    peak, _ = traced_peak(lambda: eisenstein_twisted(batch11_1e7, 2.0, 1, 1))
    assert peak <= 7 * BLOCK_BYTES + fixed_bytes(4), peak


def test_eisenstein_holds_one_block_of_terms(table11, batch11_1e7, traced_peak, fixed_bytes):
    # each block's four streams come from a generator that is done before the next
    # block's terms are made, so beside the stream's current group and block and the
    # bins of the four sums only one block's terms and magnitudes are held (two
    # blocks' read 8.4 MiB at blocks of 2^16)
    stream = symbol_stream(table11, 11, 10 ** 7, z=1j, tol=1e-10)
    peak, rep = traced_peak(lambda: eisenstein_twisted(stream, 2.0, 1, 1))
    assert rep == eisenstein_twisted(batch11_1e7, 2.0, 1, 1)
    assert peak <= 7.5 * BLOCK_BYTES + fixed_bytes(4, group=batch11_1e7.group_counts.max()), peak


# ---------------------------------------------------------------------------
# One symbol source: the stream reads as the batch
# ---------------------------------------------------------------------------


def _stream_of(batch, monkeypatch):
    """(SymbolStream whose c groups are the batch's, the list each read of it appends to)."""
    reads = []

    def groups(table, N, T, z, tol, threads):
        reads.append(T)
        ends = np.cumsum(batch.group_counts)
        starts = ends - batch.group_counts
        for c, a, b, err in zip(batch.group_cs.tolist(), starts.tolist(), ends.tolist(),
                                batch.group_err_bounds.tolist()):
            yield c, None, batch.norms[a:b], batch.values[a:b], err

    monkeypatch.setattr(modsym, "_symbol_groups", groups)
    return modsym.SymbolStream(None, 11, batch.T, batch.z, 1e-10, 1), reads


def _block_bytes(source, bounds):
    return [[a.tobytes() for a in block] for block in source.blocks(bounds)]


def _reports(source, grid, U=None):
    """Every field of grid_sums' reports over the source, in hex, for three weights."""
    return [
        [_hexed((r.value, r.count, r.mode, r.err_budget, r.err_budget_exceeded))
         for r in grid_sums(source, WeightSpec.parse(wtxt), grid, U)]
        for wtxt in ("one", "f:2,0", "abs2:1")
    ]


def _eisenstein_reports(source, T_maxes):
    return [_hexed((r.value, r.tail_estimate, r.count))
            for T in T_maxes for r in [eisenstein_twisted(source, 2.0, 1, 1, T),
                                       eisenstein_twisted(source, 1.5 + 2j, 0, 0, T)]]


def test_stream_blocks_and_sums_are_the_batch_ones(monkeypatch):
    # c groups of 5 positions, of 2 blocks and 100 (it spans a whole block), of a
    # block less 105, then of 7: blocks of the stream are exactly _SUM_CHUNK
    # positions but the last, and hold the batch's bits
    base = _synthetic_batch(4 * _SUM_CHUNK + 9, seed=3)
    counts = np.array([5, 2 * _SUM_CHUNK + 100, _SUM_CHUNK - 105, 7, _SUM_CHUNK + 2])
    batch = SymbolBatch(base.T, base.z, base.norms, base.values, 11 * np.arange(1, 6), counts,
                        np.linspace(1e-12, 1e-11, 5))
    stream, reads = _stream_of(batch, monkeypatch)
    for bounds in (False, True):
        blocks = _block_bytes(stream, bounds)
        assert blocks == _block_bytes(batch, bounds)
        assert [len(b[0]) for b in blocks] == [8 * _SUM_CHUNK] * 4 + [8 * 9]
    # grid cuts that fall inside blocks, each T's report the one of its own pass
    grid = [batch.T / 7, batch.T / 2, 0.95 * batch.T, batch.T]
    want = [[_hexed((r.value, r.count, r.mode, r.err_budget, r.err_budget_exceeded))
             for r in (sharp_sum(batch, WeightSpec.parse(wtxt), T) for T in grid)]
            for wtxt in ("one", "f:2,0", "abs2:1")]
    assert _reports(batch, grid) == _reports(stream, grid) == want
    smooth = [T / 1.25 for T in grid]
    want = [[_hexed((r.value, r.count, r.mode, r.err_budget, r.err_budget_exceeded))
             for r in (smoothed_sum(batch, WeightSpec.parse(wtxt), T, 4) for T in smooth)]
            for wtxt in ("one", "f:2,0", "abs2:1")]
    assert _reports(batch, smooth, 4) == _reports(stream, smooth, 4) == want
    assert _eisenstein_reports(stream, grid) == _eisenstein_reports(batch, grid)
    # every value is finite, so each reduction read the stream once
    assert len(reads) == 2 + 3 + 3 + 2 * len(grid)


@pytest.mark.parametrize("threads", [1, 4])
def test_stream_sums_are_the_batch_sums(table11, threads):
    # 79,591 symbols in two blocks, with a c group across the boundary between them
    T = 10 ** 6
    batch = symbols_up_to(table11, 11, T, z=1j, tol=1e-10, threads=threads)
    stream = symbol_stream(table11, 11, T, z=1j, tol=1e-10, threads=threads)
    ends = np.cumsum(batch.group_counts)
    assert np.any((ends - batch.group_counts) // _SUM_CHUNK != (ends - 1) // _SUM_CHUNK)
    assert _block_bytes(stream, True) == _block_bytes(batch, True)
    grid = [2 * 10 ** 4, 3 * 10 ** 5, 8 * 10 ** 5, T]
    assert _reports(stream, grid) == _reports(batch, grid)
    assert _reports(stream, grid[:3], 4) == _reports(batch, grid[:3], 4)
    assert _eisenstein_reports(stream, [3 * 10 ** 5, T]) == _eisenstein_reports(batch, [3 * 10 ** 5, T])


def test_grid_sums_take_one_pass(monkeypatch):
    # one _block_sums pass over the stream for the whole grid: one set of streams per T,
    # Re for one, Re and the budget for abs2:1
    batch = _synthetic_batch(2 * _SUM_CHUNK + 7, seed=9)
    stream, reads = _stream_of(batch, monkeypatch)
    widths = []
    block_sums = series._block_sums

    def counted(blocks, k):
        widths.append(k)
        return block_sums(blocks, k)

    monkeypatch.setattr(series, "_block_sums", counted)
    grid = [batch.T / 3, batch.T / 2, batch.T]
    grid_sums(stream, WeightSpec.parse("one"), grid)
    grid_sums(stream, WeightSpec.parse("abs2:1"), grid[:2], 10)
    assert widths == [1 * 3, 2 * 2] and len(reads) == 2


@pytest.mark.parametrize("bad", [[math.inf], [math.nan], [math.inf, -math.inf], [1e308, 1e308, -1e308]])
def test_stream_non_finite_sums_as_fsum(monkeypatch, bad):
    # the offending values sit in the second block, above T / 2; every sum behaves as
    # math.fsum, which reads the values again from a new pass over the stream
    batch = _synthetic_batch(2 * _SUM_CHUNK + 7, seed=5)
    at = _SUM_CHUNK + 3
    batch.values[at : at + len(bad)] = bad
    stream, reads = _stream_of(batch, monkeypatch)
    T = batch.T
    with np.errstate(all="ignore"):
        for w in (WeightSpec("f_power", 1, 0), WeightSpec("f_power", 2, 0)):

            def sharp():
                return [(r.value, r.count, r.err_budget) for r in grid_sums(stream, w, [T / 2, T])]

            def smoothed():
                return [(r.value, r.count, r.err_budget) for r in grid_sums(stream, w, [T / 2.5, T / 1.25], 4)]

            assert _outcome(sharp) == _outcome(lambda: [_sharp_reference(batch, w, t) for t in (T / 2, T)])
            assert _outcome(smoothed) == _outcome(
                lambda: [_smoothed_reference(batch, w, t, 4) for t in (T / 2.5, T / 1.25)])

        def eisenstein():
            rep = eisenstein_twisted(stream, 2.0, 1, 0)
            return rep.value, rep.tail_estimate, rep.count

        assert _outcome(eisenstein) == _outcome(lambda: _eisenstein_reference(batch, 2 + 0j, 1, 0, T))
    assert len(reads) > 5  # five reductions, and the non-finite sums read the stream again


@pytest.mark.parametrize("bad", [[math.inf], [math.nan], [1e200, -1e200]])
def test_real_weights_sum_no_im_stream(bad):
    # one and abs2m read no Im stream, yet report math.fsum's Im: 0.0, or nan where phi meets
    # a term that is not finite; the bad values sit in the second block, above T / 2
    batch = _synthetic_batch(2 * _SUM_CHUNK + 7, seed=5)
    at = _SUM_CHUNK + 3
    batch.values[at : at + len(bad)] = bad
    T = batch.T
    with np.errstate(all="ignore"):
        for w in (WeightSpec("one"), WeightSpec("abs2m", 0), WeightSpec("abs2m", 1), WeightSpec("abs2m", 2)):

            def sharp():
                return [(r.value, r.count, r.err_budget) for r in grid_sums(batch, w, [T / 2, T])]

            def smoothed():
                return [(r.value, r.count, r.err_budget) for r in grid_sums(batch, w, [T / 2.5, T / 1.25], 4)]

            assert _outcome(sharp) == _outcome(lambda: [_sharp_reference(batch, w, t) for t in (T / 2, T)])
            assert _outcome(smoothed) == _outcome(
                lambda: [_smoothed_reference(batch, w, t, 4) for t in (T / 2.5, T / 1.25)])
