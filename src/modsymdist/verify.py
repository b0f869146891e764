"""Acceptance suite: every quantitative claim as one PASS/FAIL line.

Each criterion is implemented exactly at its stated tolerance and scale;
run_acceptance() returns structured results and the CLI `verify` subcommand
prints one line per criterion to stdout (timings go to stderr so that the
stdout transcript is byte-identical across thread counts).

The quick profile shrinks the T scales for a fast end-to-end smoke run and
*skips* the three checks that are unattainable as stated at any desk scale
(see notes in the repository README); the full profile runs them verbatim
and reports their honest failures.
"""

import ctypes
import math
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import cosets, curve as curve_mod, modsym, petersson, series, stats

EICHLER_RECORDED_BOUND = 0.75  # observed max 0.496 at T=1e6; 1.5x headroom, pinned
EISENSTEIN_STABLE_TOL = 1e-3   # "stable to 3 digits" fallback relative tolerance
HOMOMORPHISM_TOL = 2e-9        # per-symbol truncation tolerance of criterion 01
ETA11_TAIL_CONSTANT = 1.1      # 1.1 * max |a_n|/n for 11a: the max is 1, at n = 1 and 2
TABLE_TERMS = 30000            # the shared 11a table of every criterion but 01's deep one


@dataclass
class CriterionResult:
    key: str
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    skipped: bool = False

    @property
    def status(self):
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")


class Resources:
    """Lazily built shared inputs for the acceptance criteria (curve 11a).

    Each input is built where a criterion first reads it.  Criterion 01's
    deep table is not one of them: it builds and drops its own.
    """

    def __init__(self, threads=1, seed=11, quick=False):
        self.curve = curve_mod.PRESETS["11a"]
        self.threads = threads
        self.seed = seed
        self.vol = cosets.volume(self.curve.N)
        self.top_T = 10 ** 6 if quick else 10 ** 7  # the largest T the profile reads
        self._cache = {}
        self._batches = {}  # symbol batches at z = i, keyed by their norm bound T

    def table(self):
        """11a's 30000-term table, from the eta product.

        eta_deep_table_level11 gives the same a_n as coefficient_table (the
        point count and Hecke expansion), which test_eta_deep_table_matches_hecke
        pins, in milliseconds instead of ~0.4 s.  The two arrays differ only
        in the sign of zero: the eta table stores +0.0, the point count keeps
        some -0.0, and no symbol, antiderivative or Rankin sum built here
        tells them apart.  The CLI builds every symbol batch on 11a's exact
        model the same way; its `coeffs` and `petersson`, which report the
        point count, and every other curve keep the point count.
        """
        if "table" not in self._cache:
            self._cache["table"] = curve_mod.eta_deep_table_level11(TABLE_TERMS)
        return self._cache["table"]

    def lattice(self):
        if "lattice" not in self._cache:
            self._cache["lattice"] = curve_mod.agm_periods(self.curve)
        return self._cache["lattice"]

    def batch(self, T):
        """Symbols at z = i up to norm T <= top_T, restricted from one batch built at top_T.

        A batch's values depend only on (c, d) and the tolerance, so the
        restriction equals a fresh build, and a T above top_T raises.  The
        first reader builds the top batch; in the full profile that is
        criterion 05, after criterion 01 has dropped its deep table, so the
        two are never held at once.
        """
        if self.top_T not in self._batches:
            self._batches[self.top_T] = modsym.symbols_up_to(
                self.table(), self.curve.N, self.top_T, z=1j, tol=1e-10, threads=self.threads
            )
        if T not in self._batches:
            self._batches[T] = self._batches[self.top_T].restricted(T)
        return self._batches[T]

    def h_at_i(self):
        if "h_i" not in self._cache:
            self._cache["h_i"] = modsym.antiderivative(self.table(), 1j, tol=1e-14)
        return self._cache["h_i"]

    def rankin(self, X=20000):
        key = ("rankin", X)
        if key not in self._cache:
            self._cache[key] = petersson.rankin_estimate(self.table(), self.curve.N, X)
        return self._cache[key]


def _fmt(x):
    return f"{x:.4g}"


def _random_gamma(rng, bound):
    """Random element of Gamma_0(11) with all entries bounded by `bound`."""
    while True:
        c = 11 * rng.randint(1, bound // 11)
        d = rng.randint(-bound, bound)
        if math.gcd(c, d) == 1:
            a = pow(d, -1, c)
            b = (a * d - 1) // c
            return cosets.GammaMatrix(a, b, c, d)


HOMOMORPHISM_DRAWS = {False: (100, 1000), True: (25, 60)}  # quick -> (pairs, entry bound)


def homomorphism_pairs(seed, quick):
    """Criterion 01's random pairs (g1, g2), drawn in one place for the check and its table."""
    count, bound = HOMOMORPHISM_DRAWS[quick]
    rng = random.Random(seed)
    return [(_random_gamma(rng, bound), _random_gamma(rng, bound)) for _ in range(count)]


def deep_table_size(seed):
    """(c_max, n_max) of criterion 01's deep table, from its drawn pairs alone.

    c_max is the largest |c| over g1, g2 and g1*g2 (an inverse has the
    same |c|); n_max is the shortest table whose tail stays below the
    per-symbol tolerance at height 1/c_max, hence at every drawn symbol.
    """
    c_max = max(
        abs(g.c) for g1, g2 in homomorphism_pairs(seed, quick=False)
        for g in (g1, g2, g1 @ g2)
    )
    return c_max, modsym.tail_terms_needed(1.0 / c_max, ETA11_TAIL_CONSTANT, HOMOMORPHISM_TOL)


def crit_homomorphism(res, quick):
    """<g1 g2> = <g1> + <g2> and <g^-1> = -<g> on the drawn pairs.

    The full profile reads a deep table that is built here and dropped on
    return: eta_deep_table_level11(n_max)'s integers, stored as int32.
    pairing, its only reader, converts each a_n to float64 exactly, so its
    values are bit-identical to the float64 table's, in half the memory.
    The table is the largest array of the run and its size follows the
    seed: at seeds with a large c_max its build sets the run's peak, above
    the seed-independent one of the 1e7 batch's criteria.
    """
    pairs = homomorphism_pairs(res.seed, quick)
    bound = HOMOMORPHISM_DRAWS[quick][1]
    if quick:
        table = res.table()
    else:
        table = curve_mod.eta_deep_table_level11(deep_table_size(res.seed)[1], np.int32)
        _release_free_heap()  # the build's FFT scratch, before the pairings allocate
    worst_hom = 0.0
    worst_inv = 0.0
    cmax = 0
    for g1, g2 in pairs:
        g3 = g1 @ g2
        cmax = max(cmax, abs(g3.c))
        v1, _ = modsym.pairing(table, g1, HOMOMORPHISM_TOL)
        v2, _ = modsym.pairing(table, g2, HOMOMORPHISM_TOL)
        v3, _ = modsym.pairing(table, g3, HOMOMORPHISM_TOL)
        worst_hom = max(worst_hom, abs(v3 - v1 - v2))
        vi, _ = modsym.pairing(table, g1.inverse(), HOMOMORPHISM_TOL)
        worst_inv = max(worst_inv, abs(vi + v1))
    ok = worst_hom < 1e-8 and worst_inv < 1e-8
    detail = (
        f"{len(pairs)} pairs entries<={bound}: max|<g1g2>-<g1>-<g2>|={worst_hom:.2e}, "
        f"max|<g^-1>+<g>|={worst_inv:.2e} (< 1e-8), max product c={cmax}"
    )
    return ok, detail, 10.0


def crit_lattice_membership(res, quick):
    T = 2000 if quick else 10 ** 4
    lat = res.lattice()
    batch = modsym.symbols_up_to(res.table(), 11, T, z=1j, tol=1e-12, threads=res.threads)
    tol = 1e-6 * math.sqrt(lat.area)
    d_plain = curve_mod.lattice_distance(batch.values, lat)
    scale = 2j * math.pi
    d_scaled = curve_mod.lattice_distance(
        batch.values, (scale * lat.omega1, scale * lat.omega2)
    )
    plain_ok = bool(np.max(d_plain) < tol)
    scaled_ok = bool(np.max(d_scaled) < tol)
    ok = plain_ok != scaled_ok  # exactly one convention must match
    which = "plain lattice" if plain_ok else ("2*pi*i-scaled lattice" if scaled_ok else "neither")
    dist = np.max(d_plain) if plain_ok else np.max(d_scaled)
    detail = (
        f"{batch.count - 1} cosets c^2+d^2<={T}: max dist {dist:.2e} "
        f"(tol {tol:.2e}); matched convention: {which}"
    )
    return ok, detail, 30.0


def crit_oracle_agreement(res, quick):
    n_cosets = 10 if quick else 50
    cmax = 8 if quick else 18
    table = res.table()
    rng = random.Random(res.seed + 1)
    worst_h = 0.0
    worst_x = 0.0
    for _ in range(n_cosets):
        c = 11 * rng.randint(1, cmax)
        while True:
            d = rng.randint(-3 * c, 3 * c)
            if math.gcd(c, d) == 1:
                break
        m = cosets.lift(c, d)
        v_closed, _ = modsym.pairing(table, m, 1e-12)
        o1 = modsym.oracle_pairing(table, m, split_height=1.0, tol=1e-10)
        o2 = modsym.oracle_pairing(table, m, split_height=2.0, tol=1e-10)
        worst_h = max(worst_h, abs(o1 - o2))
        worst_x = max(worst_x, abs(o1 - v_closed))
    ok = worst_h < 1e-9 and worst_x < 1e-8
    detail = (
        f"{n_cosets} cosets c<=11*{cmax}: max|h=1 - h=2|={worst_h:.2e} (<1e-9), "
        f"max|oracle - pairing|={worst_x:.2e} (<1e-8)"
    )
    return ok, detail, None


def crit_counting(res, quick):
    T_hi = 10 ** 5 if quick else 10 ** 6
    dev_hi = abs(cosets.coset_count(11, T_hi) * res.vol / T_hi - 1)
    if quick:
        ok = dev_hi <= 0.02
        detail = f"|count*vol/T - 1| = {dev_hi:.2e} <= 0.02 at T={T_hi:.0e}"
    else:
        dev_lo = abs(cosets.coset_count(11, 10 ** 4) * res.vol / 10 ** 4 - 1)
        ok = dev_hi <= 0.02 and dev_hi < dev_lo
        detail = (
            f"|count*vol/T - 1| = {dev_hi:.2e} <= 0.02 at T=1e6; "
            f"dev(1e6) {'<' if dev_hi < dev_lo else '>='} dev(1e4) = {dev_lo:.2e}"
        )
    return ok, detail, 10.0


def crit_theorem_g_first(res, quick):
    """Sum <g,f>^2 ~ (1/vol)(-2 pi i Int f)^2 T: deviations decreasing, <=25%."""
    grid = [10 ** 4, 10 ** 5, 10 ** 6]
    batch = res.batch(10 ** 6)
    K = complex(res.h_at_i()) ** 2 / res.vol  # sign-free: the square
    w = series.WeightSpec("f_power", 2, 0)
    devs = [abs(rep.value / T - K) / abs(K) for T, rep in zip(grid, series.grid_sums(batch, w, grid))]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    ok = monotone and devs[-1] <= 0.25
    detail = (
        f"rel devs at T=1e4,1e5,1e6: {', '.join(_fmt(d) for d in devs)} "
        f"(need decreasing, final <= 0.25; K = {K.real:.3e})"
    )
    return ok, detail, 300.0


def crit_abs2_slope(res, quick):
    grid = [10 ** 4, 3 * 10 ** 4, 10 ** 5] if quick else [
        10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6
    ]
    batch = res.batch(grid[-1])
    w = series.WeightSpec("abs2m", 1)
    xs, ys = [], []
    for T, rep in zip(grid, series.grid_sums(batch, w, grid)):
        xs.append(math.log(T))
        ys.append(rep.value.real / T)
    slope = float(np.polyfit(xs, ys, 1)[0])
    nfsq = res.rankin().value
    target = 16 * math.pi ** 2 * nfsq / res.vol ** 2
    dev = abs(slope / target - 1)
    tol = 0.25 if quick else 0.15
    ok = dev <= tol
    detail = f"regression slope {slope:.5f} vs 16pi^2||f||^2/vol^2 = {target:.5f}: dev {_fmt(dev)} <= {tol}"
    return ok, detail, 300.0


def crit_first_moment(res, quick):
    """Sum <g,f>/T vs the spec's constant (1/vol)(-2 pi i Int_{i inf}^{i} f)."""
    grid = [10 ** 4, 10 ** 5, 10 ** 6]
    batch = res.batch(10 ** 6)
    h = complex(res.h_at_i())
    K_spec = -h / res.vol      # literal criterion constant
    K_residue = h / res.vol    # first-moment residue (what the data approaches)
    w = series.WeightSpec("f_power", 1, 0)
    devs, devs_residue = [], []
    for T, rep in zip(grid, series.grid_sums(batch, w, grid)):
        S = rep.value
        devs.append(abs(S / T - K_spec) / abs(K_spec))
        devs_residue.append(abs(S / T - K_residue) / abs(K_residue))
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    ok = monotone and devs[-1] <= 0.25
    detail = (
        f"rel devs vs spec constant {K_spec.real:.3e}: {', '.join(_fmt(d) for d in devs)} "
        f"(need decreasing, final <= 0.25); vs opposite-sign residue constant: "
        f"{', '.join(_fmt(d) for d in devs_residue)}"
    )
    return ok, detail, None


def _gaussian_free_moments(batch, norm_f_sq, vol, decades):
    """Criterion 08's numbers from a symbol source: (kx_list, ky_list, corr, odd).

    kx_list and ky_list hold M40/M20^2 and M04/M02^2 over the symbols with
    norm <= T for each T in decades (ascending, the last covering every
    norm); corr is |M11|/sqrt(M20 M02) and odd maps each (n, m) with
    n + m <= 3 and n or m odd to M_{n,m}, both over every symbol.  Each T
    is one pass over the blocks, masked at norm <= T and normalized there
    into stats._moments: the four even moments below the last decade, all
    eleven at it.  So each number is bit-identical to symbol_moments over
    the symbols with norm <= T.  A norm <= 1 (none at z = i) or above the
    last decade raises ValueError.
    """

    def below(T):  # the (norms, values) of the symbols with norm <= T, one block at a time
        for norms, values in batch.blocks():
            if not np.all((norms > 1.0) & (norms <= decades[-1])):
                raise ValueError(f"a symbol with norm <= 1 or above the last decade {decades[-1]}")
            inside = norms <= T
            yield norms[inside], values[inside]

    def moments(T, keys):
        return stats._moments(
            lambda: ((v.real, v.imag) for v in stats._normalized(below(T), norm_f_sq, vol)), keys)

    even = [(2, 0), (0, 2), (4, 0), (0, 4)]
    odd = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 0), (0, 3)]
    Ms = [moments(T, even) for T in decades[:-1]] + [moments(decades[-1], even + odd)]
    kx_list = [M[(4, 0)] / M[(2, 0)] ** 2 for M in Ms]
    ky_list = [M[(0, 4)] / M[(0, 2)] ** 2 for M in Ms]
    M = Ms[-1]
    corr = abs(M[(1, 1)]) / math.sqrt(M[(2, 0)] * M[(0, 2)])
    return kx_list, ky_list, corr, {key: M[key] for key in odd}


def crit_gaussian_free(res, quick):
    T_top = 10 ** 6 if quick else 10 ** 7
    decades = [10 ** 4, 10 ** 5, 10 ** 6] if quick else [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    band = (2.3, 3.7) if quick else (2.4, 3.6)
    nfsq = petersson.lattice_norm(res.lattice(), 1).value  # any positive scale: ratios are free of it
    kx_list, ky_list, corr, odd = _gaussian_free_moments(res.batch(T_top), nfsq, res.vol, decades)
    odd_max = max(abs(v) for v in odd.values())
    kx, ky = kx_list[-1], ky_list[-1]
    trend = abs(kx - 3) < abs(kx_list[0] - 3) and abs(ky - 3) < abs(ky_list[0] - 3)
    ok = (
        band[0] <= kx <= band[1]
        and band[0] <= ky <= band[1]
        and trend
        and corr <= 0.1
        and odd_max <= 0.1
    )
    detail = (
        f"kurtosis at T={T_top:.0e}: ({kx:.3f},{ky:.3f}) in [{band[0]},{band[1]}], "
        f"decade trend {['%.3f' % k for k in kx_list]}; |corr|={corr:.4f}<=0.1; "
        f"max odd |M|={odd_max:.4f}<=0.1"
    )
    return ok, detail, 1200.0


def crit_gaussian_normalized(res, quick):
    T_top = 10 ** 6 if quick else 10 ** 7
    band = (0.78, 1.22) if quick else (0.85, 1.15)
    ks_tol = 0.09 if quick else 0.08
    batch = res.batch(T_top)
    nfsq = res.rankin().value
    x = np.empty(sum(int(np.count_nonzero(norms > 1.0)) for norms, _ in batch.blocks()))

    def xy_blocks():  # M20 and M02 from the normalized blocks, gathering x alone for the KS sort
        k = 0
        for v in stats._normalized(batch.blocks(), nfsq, res.vol):
            x[k : k + len(v)] = v.real
            k += len(v)
            yield v.real, v.imag

    M = stats._moments(xy_blocks, [(2, 0), (0, 2)])
    m20, m02 = M[(2, 0)], M[(0, 2)]
    x.sort()
    ks = stats._ks_sorted(x)
    ok = band[0] <= m20 <= band[1] and band[0] <= m02 <= band[1] and ks <= ks_tol
    detail = (
        f"M20={m20:.4f}, M02={m02:.4f} in [{band[0]},{band[1]}] at T={T_top:.0e} "
        f"(||f||^2 Rankin); KS(Re)={ks:.4f} <= {ks_tol}"
    )
    return ok, detail, None


def crit_petersson_cross(res, quick):
    r2 = res.rankin(20000)
    r1 = res.rankin(10000)
    lat = petersson.lattice_norm(res.lattice(), 1)
    cross = abs(r2.value / lat.value - 1)
    stab = abs(r2.value / r1.value - 1)
    ok = cross <= 0.05 and stab <= 0.05
    detail = (
        f"rankin(X=2e4)={r2.value:.5f} vs lattice={lat.value:.5f}: dev {_fmt(cross)} <= 0.05; "
        f"X-doubling change {_fmt(stab)} <= 0.05 (spreads {_fmt(r1.spread)}, {_fmt(r2.spread)})"
    )
    return ok, detail, None


def _three_digit_stable(a, b):
    if f"{abs(a):.3g}" == f"{abs(b):.3g}":
        return True
    return abs(a - b) <= EISENSTEIN_STABLE_TOL * max(abs(a), abs(b))


def _decay_maxima(batch):
    """Criterion 11's (shells, eichler) from one pass over the blocks of batch.

    shells[k - 2] is max |v| / norm^0.1 over the shell (10^k, 10^(k+1)],
    k = 2..5, and eichler max |v| / log(norm): maxima, so any blocking gives
    the whole arrays' bits.
    """
    shells, eichler = [-math.inf] * 4, -math.inf
    for norms, values in batch.blocks():
        mags = np.abs(values)
        for k in range(4):
            inside = (norms > 10 ** (k + 2)) & (norms <= 10 ** (k + 3))
            shell_max = np.max(mags[inside] / norms[inside] ** 0.1, initial=-math.inf)
            shells[k] = max(shells[k], float(shell_max))
        eichler = max(eichler, float(np.max(mags / np.log(norms))))
    return shells, eichler


def crit_convergence_decay(res, quick):
    batch = res.batch(10 ** 6)
    # (a) E^{m,n}(i,2) partial-sum stability between T=1e5 and 4e5
    stab_msgs = []
    stab_ok = True
    for (m, n) in [(1, 0), (1, 1), (2, 0)]:
        e1 = series.eisenstein_twisted(batch, 2.0, m, n, 10 ** 5).value
        e4 = series.eisenstein_twisted(batch, 2.0, m, n, 4 * 10 ** 5).value
        good = _three_digit_stable(e1, e4)
        stab_ok &= good
        stab_msgs.append(f"E^{m},{n}: {abs(e1):.4e}->{abs(e4):.4e} {'ok' if good else 'UNSTABLE'}")
    # (b) shell maxima of |v| / norm^0.1 strictly decreasing over decade shells
    shells, eichler = _decay_maxima(batch)
    decay_ok = all(shells[i] > shells[i + 1] for i in range(len(shells) - 1))
    # (c) Eichler ratio bounded by the recorded constant
    eichler_ok = eichler <= EICHLER_RECORDED_BOUND
    ok = stab_ok and decay_ok and eichler_ok
    detail = (
        "; ".join(stab_msgs)
        + f"; shell maxima |v|/norm^0.1 over decades: {['%.3f' % s for s in shells]} "
        f"({'strictly decreasing' if decay_ok else 'NOT decreasing'}); "
        f"Eichler max |v|/log = {eichler:.3f} <= {EICHLER_RECORDED_BOUND} (recorded bound)"
    )
    return ok, detail, None


def crit_sandwich(res, quick):
    T = 10 ** 4
    batch = res.batch(int(T * 1.2))
    ok = True
    msgs = []
    Us = (10, 100)
    for wtxt in ("one", "abs2:1"):
        w = series.WeightSpec.parse(wtxt)
        edges = series.grid_sums(batch, w, [t for U in Us for t in (T * (1 - 1 / U), T * (1 + 1 / U))])
        for U, lo_rep, hi_rep in zip(Us, edges[::2], edges[1::2]):
            lo, hi = lo_rep.value.real, hi_rep.value.real
            mid = series.smoothed_sum(batch, w, T, U).value.real
            good = lo <= mid <= hi
            ok &= good
            msgs.append(f"{wtxt},U={U}: {lo:.6g} <= {mid:.6g} <= {hi:.6g} {'ok' if good else 'VIOLATED'}")
    endpoints = (
        series.smooth_cutoff(1 - 1 / 10, 10) == 1.0
        and series.smooth_cutoff(1 + 1 / 10, 10) == 0.0
        and series.smooth_cutoff(1 - 1 / 100, 100) == 1.0
        and series.smooth_cutoff(1 + 1 / 100, 100) == 0.0
    )
    ok &= endpoints
    detail = "; ".join(msgs) + f"; exact endpoints: {'yes' if endpoints else 'NO'}"
    return ok, detail, None


def _determinism_transcript(res, threads):
    table = res.table()
    batch = modsym.symbols_up_to(table, 11, 10 ** 5, z=1j, tol=1e-10, threads=threads)
    lines = []
    for wtxt in ("one", "f:1,0", "abs2:1", "ab:2,0"):
        w = series.WeightSpec.parse(wtxt)
        rep = series.sharp_sum(batch, w)
        lines.append(f"{wtxt} {rep.count} {rep.value.real!r} {rep.value.imag!r}")
    nfsq = petersson.lattice_norm(res.lattice(), 1).value
    rep = stats.symbol_moments(batch, nfsq, res.vol, 4, 4)
    for key in sorted(rep.pairs):
        lines.append(f"M{key[0]}{key[1]} {rep.pairs[key]!r}")
    return "\n".join(lines)


def crit_determinism(res, quick):
    base = _determinism_transcript(res, 1)
    ok = True
    for k in (4, 8):
        ok &= _determinism_transcript(res, k) == base
    detail = f"sums+moments transcript at T=1e5 byte-identical for threads 1,4,8: {'yes' if ok else 'NO'}"
    return ok, detail, None


CRITERIA = [
    ("01", "homomorphism", crit_homomorphism, False),
    ("02", "eichler-shimura-lattice", crit_lattice_membership, False),
    ("03", "oracle-agreement", crit_oracle_agreement, False),
    ("04", "counting-lemma", crit_counting, False),
    ("05", "second-moment-residue", crit_theorem_g_first, True),
    ("06", "abs-square-slope", crit_abs2_slope, False),
    ("07", "first-moment-residue", crit_first_moment, True),
    ("08", "gaussian-moment-ratios", crit_gaussian_free, False),
    ("09", "gaussian-normalized", crit_gaussian_normalized, False),
    ("10", "petersson-cross-validation", crit_petersson_cross, False),
    ("11", "convergence-and-decay", crit_convergence_decay, True),
    ("12", "smoothing-sandwich", crit_sandwich, False),
    ("13", "determinism", crit_determinism, False),
]

SKIP_REASON = (
    "known spec-defect check at desk scale; run the full suite for the verbatim result"
)


def _release_free_heap():
    """Return the heap pages that freed arrays left behind to the OS (glibc; else a no-op).

    run_acceptance calls it before each criterion, and criterion 01 once
    more when its deep table is built, before the pairings allocate.
    Without the second, at seeds whose deep table sets the peak (9, 42,
    101), one run read a ~1.3 MB higher peak.  Without the first, a
    process that runs the suite again builds each deep table on the heap
    that the last run's batches left resident, where it lands differently
    from one process to the next.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim(0)


def _huge_page_advice(enabled):
    """Switch numpy's huge-page advice for new large arrays; returns the old setting.

    numpy asks the kernel to back each array of 4 MB or more with 2 MB
    pages.  Once glibc serves such arrays from its heap (it does after the
    first large free), the advice stays on those heap ranges, and what
    later lands there is faulted in 2 MB at a time whenever the kernel has
    a huge page free.  How much that adds follows the heap's alignment,
    which differs from process to process, and the machine's free huge
    pages, not the run.  A numpy without the switch keeps its own setting.
    """
    try:
        switch = np._core.multiarray._set_madvise_hugepage
    except AttributeError:
        return enabled
    return switch(enabled)


def run_acceptance(curve="11a", quick=False, threads=1, seed=11, log=None):
    """Run the acceptance criteria; returns a list of CriterionResult.

    Shared inputs are built where a criterion first reads them, so a
    criterion's seconds include the inputs it builds first: criterion 01
    its deep table, and the first reader of the top symbol batch (05, or
    06 in the quick profile) that batch.  Each criterion starts on a
    trimmed heap, and no array of the run is advised onto huge pages (the
    caller's setting is restored on return), so a criterion's memory is
    what it holds over what is still live, whatever ran before it in the
    process, and repeated runs read the same peak.
    """
    if curve_mod.resolve_curve(curve) != curve_mod.PRESETS["11a"]:
        raise ValueError("the acceptance suite is defined for the 11a preset")
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    res = Resources(threads=threads, seed=seed, quick=quick)
    deep = ""
    if not quick:
        c_max, n_max = deep_table_size(seed)
        deep = (f"; deep table c_max={c_max} n_max={n_max} "
                f"fft_len={curve_mod._eta_half_length(n_max)}")
    log(f"shared inputs, each built by its first reader: table=eta {TABLE_TERMS} terms; "
        f"symbol batch T={res.top_T}{deep}")
    results = []
    huge = _huge_page_advice(False)
    try:
        for key, name, fn, defect in CRITERIA:
            if quick and defect:
                results.append(
                    CriterionResult(key, name, passed=False, skipped=True, detail=SKIP_REASON)
                )
                continue
            _release_free_heap()
            t0 = time.perf_counter()
            ok, detail, cap = fn(res, quick)
            dt = time.perf_counter() - t0
            if cap is not None and not quick and dt > cap:
                ok = False
                detail += f"; RUNTIME {dt:.1f}s exceeded cap {cap:.0f}s"
            results.append(CriterionResult(key, name, passed=bool(ok), detail=detail, seconds=dt))
            log(f"[{key}] {name}: {'PASS' if ok else 'FAIL'} in {dt:.1f}s")
    finally:
        _huge_page_advice(huge)
    return results


def format_results(results):
    lines = []
    for r in results:
        lines.append(f"{r.status}  {r.key} {r.name}: {r.detail}")
    n_pass = sum(1 for r in results if not r.skipped and r.passed)
    n_fail = sum(1 for r in results if not r.skipped and not r.passed)
    n_skip = sum(1 for r in results if r.skipped)
    lines.append(f"summary: {n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return "\n".join(lines)
