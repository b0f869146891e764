"""Elliptic curve data: Fourier coefficients of the attached newform and periods.

A rational elliptic curve of conductor N carries a weight-2 newform

    f(z) = sum_{n>=1} a_n e^{2 pi i n z},   a_1 = 1,

whose coefficients are produced here by point counting over F_p plus the
Hecke recursion, and whose complex period lattice Z*omega1 + Z*omega2 is
computed by the arithmetic-geometric mean.  Level 11 has a second route:
the newform of 11a is an eta product, and eta_deep_table_level11 expands it
by FFT to the same a_n.  It serves every symbol batch that cli._batch_for
builds on 11a's exact model and every table of `verify`; `coeffs`,
`petersson` and every other curve count points.  The coefficients and the
lattice feed everything downstream: the period lattice is the target of the
Eichler-Shimura membership checks and the source of one of the two
Petersson-norm estimates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .series import _SUM_CHUNK

AP_PRIME_BOUND = 10 ** 6  # cost guard: point counting is O(p) per prime


@dataclass(frozen=True)
class CurveSpec:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    N: int

    def __post_init__(self):
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass model (discriminant 0)")
        if self.N < 11:
            raise ValueError(f"conductor N={self.N} < 11 has no weight-2 rational newform")
        # a prime of N prime to the discriminant has good reduction; the converse is
        # not checked, since a non-minimal model has extra primes in the discriminant
        delta, good = self.discriminant(), self.N
        while (g := math.gcd(good, delta)) > 1:
            good //= g
        if good > 1:
            raise ValueError(
                f"conductor N={self.N} has a prime of good reduction: "
                f"its factor {good} is prime to the discriminant {delta}"
            )

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = a1 * a3 + 2 * a4
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


# Named presets.  Modular degree and Manin constant (= 1 for both) are
# documented classical facts, not computed here; the degree-2 value for 37a
# is cross-checked by the Rankin estimate in the test suite.
PRESETS = {
    "11a": CurveSpec(0, -1, 1, -10, -20, 11),
    "37a": CurveSpec(0, 0, 1, -1, 0, 37),
}
PRESET_DEGREES = {PRESETS["11a"]: 1, PRESETS["37a"]: 2}


def resolve_curve(spec):
    """Accept a preset name, 'a1,a2,a3,a4,a6,N' string, or CurveSpec."""
    if isinstance(spec, CurveSpec):
        return spec
    if spec in PRESETS:
        return PRESETS[spec]
    parts = [int(t) for t in str(spec).split(",")]
    if len(parts) != 6:
        raise ValueError(f"unknown curve {spec!r}: expected preset name or 'a1,a2,a3,a4,a6,N'")
    return CurveSpec(*parts)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


def sieve_primes(n):
    """All primes <= n (numpy sieve)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = False
    return np.nonzero(s)[0].astype(np.int64)


def is_prime(p):
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if p == q:
            return True
        if p % q == 0:
            return False
    i = 37
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


class CountScratch:
    """Work arrays that ap_count reuses at every prime p <= size.

    x = 0..size-1, the int64 buffers D and q, and the int8 character table
    chi.  One scratch serves a whole coefficient table, so no prime
    allocates (and page-faults in) an O(p) array of its own.
    """

    def __init__(self, size):
        self.x = np.arange(size, dtype=np.int64)
        self.D = np.empty(size, dtype=np.int64)
        self.q = np.empty(size, dtype=np.int64)
        self.chi = np.empty(size, dtype=np.int8)


def ap_count(curve, p, work=None):
    """a_p = p + 1 - #E~(F_p), the projective points of the reduction mod p.

    One rule for every prime.  At good p this is the trace of Frobenius.  At
    bad p the reduced cubic is singular with exactly one singular point, and
    that point is F_p-rational (Silverman, GTM 106, III.1), so the count is
    the smooth-point rule a_p = p - #E~_ns(F_p): 0, +1, -1 for additive,
    split, non-split reduction.

    For odd p, completing the square (y = (-B +- sqrt(D))/2, B = a1 x + a3)
    gives #affine points = sum_x (1 + chi(D(x))) with chi the Legendre
    symbol and D = B^2 + 4 rhs = 4x^3 + b2 x^2 + 2 b4 x + b6, so

        a_p = -sum_{x in F_p} chi(D(x)).

    This holds at bad p too: the singular point is a root of D with one y,
    and chi(0) = 0 counts it once.  b2, 2 b4 and b6 are reduced mod p as
    Python ints, so any model size is exact.  Then D = ((4x + b2) x + 2 b4) x
    + b6 is evaluated by Horner in int64 and reduced mod p once, at the end,
    by a floor division: every intermediate is below 5 p^3, which must stay
    below 2^63, and 5 * AP_PRIME_BOUND^3 = 5 * 10^18 does.

    `work` is a CountScratch of size >= p; the squares table, D and the
    gathered characters all live in it.  Without one, a scratch of size p is
    built for this call.
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p > AP_PRIME_BOUND:
        raise ValueError(f"p={p} exceeds point-counting bound {AP_PRIME_BOUND}")

    if p == 2:
        a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
        return 2 - sum(
            (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0
            for x in range(2) for y in range(2)
        )

    if work is None:
        work = CountScratch(p)
    if len(work.x) < p:
        raise ValueError(f"scratch of size {len(work.x)} is too short for p={p}")
    b2, b4, b6, _ = curve.b_invariants()
    x, D, q, chi = work.x[:p], work.D[:p], work.q[:p], work.chi[:p]
    h = (p + 1) // 2  # h = 0..(p-1)/2 reaches every square
    sq, quot = D[:h], q[:h]
    np.multiply(x[:h], x[:h], out=sq)
    np.floor_divide(sq, p, out=quot)
    quot *= p
    sq -= quot
    chi.fill(-1)
    chi[sq] = 1
    chi[0] = 0
    np.multiply(x, 4, out=D)
    D += b2 % p  # < 5p
    D *= x
    D += 2 * b4 % p  # < 5p^2
    D *= x
    D += b6 % p  # < 5p^3
    np.floor_divide(D, p, out=q)
    q *= p
    D -= q
    hits = work.q.view(np.int8)[:p]  # the quotients are spent: gather into their bytes
    np.take(chi, D, out=hits, mode="clip")  # D is in [0, p): "clip" only skips buffering
    return -int(hits.sum())


@dataclass(frozen=True)
class CoefficientTable:
    """Fourier coefficients a_1..a_n_max with a certified linear tail bound.

    Built from the array alone.  a[0] is unused padding so that a[n] is the
    n-th coefficient, n_max = len(a) - 1, and the tail constant C is derived
    by certified_tail_constant, so |a_n| <= C n holds on the table by
    construction; tail_terms_needed applies it to every n > n_max as well.
    That rests on Deligne's bound |a_n| <= d(n) sqrt(n) and two facts about
    the divisor function: d(n)/sqrt(n) <= sqrt(3) for all n (equality at
    n = 12), and d(n) < sqrt(n) for n > 1260.  Hence |a_n|/n <= sqrt(3)
    everywhere and |a_n|/n < 1 beyond 1260, which C covers: it is 1.1 times
    the measured maximum (at least 1.1, since a_1 = 1), raised to sqrt(3)
    when n_max < 1260.
    """

    a: np.ndarray = field(repr=False)
    n_max: int = field(init=False)
    tail_constant: float = field(init=False)

    def __post_init__(self):
        if len(self.a) < 2 or self.a[1] != 1:
            raise ValueError("a_1 must be 1 (newform normalization)")
        object.__setattr__(self, "n_max", len(self.a) - 1)
        object.__setattr__(self, "tail_constant", certified_tail_constant(self.a))


DIVISOR_BOUND_START = 1260  # d(n) < sqrt(n) for every n > 1260


def max_ratio(a):
    """max |a_n|/n over n = 1..len(a)-1, taken in slices of series._SUM_CHUNK entries.

    Equal to np.max(np.abs(a[1:]) / np.arange(1, len(a))), NaN included,
    without that expression's three length-n temporaries.
    """
    peaks = []
    for lo in range(1, len(a), _SUM_CHUNK):
        n = np.arange(lo, min(lo + _SUM_CHUNK, len(a)))
        peaks.append(np.max(np.abs(a[lo : lo + _SUM_CHUNK]) / n))
    return float(np.max(peaks))


def certified_tail_constant(a):
    """Certified C with |a_n| <= C n for all n >= 1, from a[1..n_max].

    1.1 times the measured max |a_n|/n; for tables shorter than
    DIVISOR_BOUND_START also at least sqrt(3), the Deligne bound on
    |a_n|/n that covers the untabulated n <= 1260 (see CoefficientTable).
    """
    measured = 1.1 * max_ratio(a)
    return measured if len(a) - 1 >= DIVISOR_BOUND_START else max(measured, math.sqrt(3))


def _checked_n_max(n_max):
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max={n_max} must be >= 1")
    return n_max


def coefficient_table(curve, n_max):
    """Point-count a_p for p <= n_max and Hecke-expand them in one array.

    The primes are taken in increasing order.  Each p sets a_p = ap_count,
    then its powers by a_{p^k} = a_p a_{p^{k-1}} - chi(p) p a_{p^{k-2}}
    (chi(p) = 0 if p | N, else 1; a[0] = 0 stands in for a_{p^{-1}}), then
    sweeps a[q m] = a[q] a[m] over every power q = p^k and every m >= 2
    prime to p.  Invariant: when p's turn starts, a_m is final for every m
    whose primes are all below p, and 0 for every other m > 1.  So each n is
    written last by the sweep of its largest prime, from final factors.

    Every count shares one CountScratch sized for the largest prime, so the
    loop allocates no O(p) array per prime.
    """
    n_max = _checked_n_max(n_max)
    curve = resolve_curve(curve)
    primes = sieve_primes(n_max).tolist()
    if primes and primes[-1] > AP_PRIME_BOUND:
        raise ValueError(f"p={primes[-1]} exceeds point-counting bound {AP_PRIME_BOUND}")
    work = CountScratch(primes[-1] if primes else 0)
    a = np.zeros(n_max + 1, dtype=np.float64)
    a[1] = 1.0
    for p in primes:
        chi = 0 if curve.N % p == 0 else 1
        a[p] = ap_count(curve, p, work)
        q = p
        while q * p <= n_max:
            a[q * p] = a[p] * a[q] - chi * p * a[q // p]
            q *= p
        q = p
        while 2 * q <= n_max:
            m = np.arange(2, n_max // q + 1)
            m = m[m % p != 0]
            a[q * m] = a[q] * a[m]
            q *= p
    return CoefficientTable(a)


def _eta_half_length(n_max):
    """FFT length of eta_deep_table_level11's half products: least 2^a 3^b 5^c >= K.

    numpy's FFT runs as fast per point at these lengths as at powers of
    two, and the least one is within a few percent of K = ceil(n_max / 11),
    where the power of two can be up to twice K.
    """
    K = -(-int(n_max) // 11)
    best = 1 << (K - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-K // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _pentagonal(L):
    """Ascending exponents below L and signs of P(q) = sum_k (-1)^k q^{k(3k-1)/2}."""
    exps = [0]
    signs = [1.0]
    k = 1
    while k * (3 * k - 1) // 2 < L:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < L:
                exps.append(e)
                signs.append(-1.0 if k % 2 else 1.0)
        k += 1
    return np.array(exps, dtype=np.int64), np.array(signs, dtype=np.float64)


def eta_deep_table_level11(n_max, dtype=np.float64):
    """Deep coefficient table for the level-11 newform via its eta product.

    The unique weight-2 newform on Gamma_0(11) is f = q D(q)^2 with
    D = P(q) P(q^11), P(q) = prod_{n>=1} (1-q^n) = sum_k (-1)^k q^{k(3k-1)/2}.
    So D^2 = E(q) E(q^11) with E = P^2, and modulo q^L (L = n_max) only the
    first K = ceil(L/11) terms R = E[:K] enter E(q^11).  Splitting the
    index by its residue mod 11,

        D^2[11u + r] = sum_j E[11(u-j) + r] R[j] = (E_r * R)[u],
        E_r[v] = E[11v + r],

    eleven convolutions of length ~L/11 replace one of length L.  E is built
    exactly in a[1:] from the sparse pentagonal series, as the diagonal plus
    twice the upper triangle of its square.  Only the first K terms of each
    product are kept, so with h = ceil(K/2), R = R0 + q^h R1 and
    E_r = A0 + q^h A1 (halves at h),

        (E_r * R) mod q^K = A0 R0 + q^h (A0 R1 + A1 R0)   (A1 R1 starts at q^2h),

    and every product on the right has at most K terms: real FFTs of
    length N = _eta_half_length(n_max) >= K give them without wrap-around,
    at about half the working memory of one product taken whole at the
    power-of-two length >= 2K - 1, and at lengths N close to K.  R0 and R1 are
    transformed once, before any class is overwritten (class 0 overlaps R),
    and each class is rounded back into its own slots a[1+r::11].  Zeros
    are stored as +0.0, so the table depends only on its integer values.
    Every class must be integer to ~1e-6, else we raise rather than ship
    noise.

    Point counting is O(p) per prime and cannot reach the ~6*10^6
    coefficients the homomorphism suite needs (verify sizes the table from
    its drawn pairs); this route can, and is cross-validated against the
    point-count/Hecke table in the tests.

    The table is stored as dtype, float64 or a signed integer type; the
    integers are the same either way, and an integer table takes int32's 4
    bytes a term where float64 takes 8 (pairing reads either exactly).  E
    is built in the table itself; the transforms run in float64 through
    five spectra of N // 2 + 1 points: R0, R1, a class's two halves and one
    scratch, which also takes each zero-padded input and the inverse
    transforms.  A class value that its integer dtype cannot hold raises
    OverflowError.
    """
    n_max = _checked_n_max(n_max)
    L = n_max
    a = np.zeros(n_max + 1, dtype=dtype)
    E = a[1:]  # E[m] is the coefficient of q^m, first of P^2, then of D^2
    exps, signs = _pentagonal(L)
    signs = signs.astype(dtype)
    # P^2 = sum_i q^(2 e_i) + 2 sum_{i<j} s_i s_j q^(e_i + e_j): the upper triangle
    # twice, the diagonal (s_i^2 = 1) once
    for i, (e, s) in enumerate(zip(exps.tolist(), signs.tolist())):
        cut = int(np.searchsorted(exps, L - e))
        if cut <= i:
            break
        E[exps[i:cut] + e] += signs[i:cut] * (2 * s)  # distinct indices: no np.add.at
        E[2 * e] -= 1
    K = -(-L // 11)
    N = _eta_half_length(L)
    h = -(-K // 2)
    R0, R1, P, T, W = (np.empty(N // 2 + 1, dtype=np.complex128) for _ in range(5))
    w = W.view(np.float64)  # N + 1 or N + 2 reals
    Pr = P.view(np.float64)

    def rfft(x, out):
        w[: len(x)] = x
        w[len(x) : N] = 0.0
        return np.fft.rfft(w[:N], out=out)

    rfft(E[:h], R0)
    rfft(E[h:K], R1)
    limit = np.iinfo(dtype).max if np.issubdtype(dtype, np.integer) else None
    resid = 0.0
    for r in range(min(11, L)):
        cls = E[r::11]
        n = len(cls)
        rfft(cls[:h], P)
        rfft(cls[h:], T)
        T *= R0
        T += np.multiply(P, R1, out=W)  # A0 R1 + A1 R0
        P *= R0  # A0 R0
        prod = np.fft.irfft(P, N, out=w[:N])[:n]
        if n > h:
            prod[h:] += np.fft.irfft(T, N, out=Pr[:N])[: n - h]
        rounded = np.round(prod, out=Pr[:n])
        rounded += 0.0  # -0.0 + 0.0 is +0.0
        if limit is not None and max(rounded.max(), -rounded.min()) > limit:
            raise OverflowError(f"eta-product coefficient beyond {np.dtype(dtype).name}")
        cls[:] = rounded
        prod -= rounded
        resid = max(resid, float(np.max(np.abs(prod, out=prod))))
    if not resid <= 1e-6:
        raise ArithmeticError(f"eta-product FFT not integer-exact (residual {resid:.2e})")
    del R0, R1, P, T, W, w, Pr, prod, rounded  # the spectra go before the table's own scan
    return CoefficientTable(a)


# ---------------------------------------------------------------------------
# Period lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodLattice:
    """Periods of the Weierstrass model, omega1 real > 0, Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex
    area: float

    def __post_init__(self):
        if (self.omega2 / self.omega1).imag <= 0:
            raise ValueError("omega2/omega1 must lie in the upper half-plane")
        if self.area <= 0:
            raise ValueError("lattice area must be positive")


def _agm(a, b, precision=1e-14, cap=64):
    for _ in range(cap):
        if abs(a - b) <= precision * max(abs(a), 1e-300):
            return a
        a, b = (a + b) / 2, np.sqrt(complex(a * b))
        # principal root; keep the branch nearest the running mean
        if abs(a - b) > abs(a + b):
            b = -b
    raise ArithmeticError(f"AGM did not converge within {cap} iterations")


def agm_periods(curve):
    """Period lattice of the model differential dx/(2y + a1 x + a3) via AGM.

    Roots e_i of 4x^3 + b2 x^2 + 2 b4 x + b6 give, for positive discriminant
    (e1 > e2 > e3 real),

        omega1 = pi / AGM(sqrt(e1-e3), sqrt(e1-e2)),
        omega2 = i pi / AGM(sqrt(e1-e3), sqrt(e2-e3)),

    and for negative discriminant (e1 real, e2 = conj(e3) complex) the same
    first formula (the conjugate pair makes the AGM real) together with

        omega2 = pi / AGM(sqrt(e3-e1), sqrt(e3-e2)),

    which lands on omega1/2 + i v.  Both branches were pinned against direct
    quadrature of dx/sqrt(g) and validated by recovering g2, g3 from the
    lattice Eisenstein sums.
    """
    curve = resolve_curve(curve)
    b2, b4, b6, _ = curve.b_invariants()
    roots = np.roots([4.0, float(b2), 2.0 * float(b4), float(b6)])
    disc = curve.discriminant()
    if disc > 0:
        e1, e2, e3 = sorted(roots.real, reverse=True)
        om1 = math.pi / abs(_agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2)))
        om2 = 1j * math.pi / abs(_agm(math.sqrt(e1 - e3), math.sqrt(e2 - e3)))
    else:
        e1 = max(r.real for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r)))
        e3 = min((r for r in roots if r.imag < 0), key=lambda r: r.imag)
        e2 = np.conj(e3)
        om1 = math.pi / abs(_agm(np.sqrt(complex(e1 - e3)), np.sqrt(complex(e1 - e2))))
        om2 = math.pi / _agm(np.sqrt(complex(e3 - e1)), np.sqrt(complex(e3 - e2)))
    om1 = complex(om1)
    om2 = complex(om2)
    if (om2 / om1).imag < 0:
        om2 = -om2
    area = abs((np.conj(om1) * om2).imag)
    return PeriodLattice(omega1=om1, omega2=om2, area=float(area))


def lattice_distance(values, lattice):
    """Distance from each complex value to the nearest point of the lattice.

    `lattice` is a PeriodLattice or a plain (omega1, omega2) pair.
    """
    if isinstance(lattice, tuple):
        w1, w2 = complex(lattice[0]), complex(lattice[1])
    else:
        w1, w2 = lattice.omega1, lattice.omega2
    v = np.asarray(values, dtype=np.complex128)
    M = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    coeff = np.linalg.solve(M, np.vstack([v.real, v.imag]))
    frac = coeff - np.round(coeff)
    res = M @ frac
    return np.hypot(res[0], res[1])
