"""Elliptic curve data: Fourier coefficients of the attached newform and periods.

A rational elliptic curve of conductor N carries a weight-2 newform

    f(z) = sum_{n>=1} a_n e^{2 pi i n z},   a_1 = 1,

whose coefficients are produced here by point counting over F_p plus the
Hecke recursion, and whose complex period lattice Z*omega1 + Z*omega2 is
computed by the arithmetic-geometric mean.  Both feed everything downstream:
the period lattice is the target of the Eichler-Shimura membership checks
and the source of one of the two Petersson-norm estimates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
PRESET_DEGREES = {"11a": 1, "37a": 2}


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


def ap_count(curve, p):
    """a_p from point counts over F_p.

    Good p: a_p = p + 1 - #E(F_p) (projective points).
    Bad p (p | N): a_p = p - #E^sm(F_p) counting smooth points only, which
    lands in {0, +1, -1} for additive / split / non-split reduction.
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p > AP_PRIME_BOUND:
        raise ValueError(f"p={p} exceeds point-counting bound {AP_PRIME_BOUND}")
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    good = curve.N % p != 0

    if p == 2:
        pts = [
            (x, y)
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0
        ]
        if good:
            return 2 + 1 - (len(pts) + 1)
        smooth = sum(
            1
            for x, y in pts
            if (a1 * y - 3 * x * x - 2 * a2 * x - a4) % 2 != 0
            or (2 * y + a1 * x + a3) % 2 != 0
        )
        return 2 - (smooth + 1)

    x = np.arange(p, dtype=np.int64)
    rhs = (x * x % p * x + a2 * x * x + a4 * x + a6) % p
    B = (a1 * x + a3) % p
    # complete the square: y = (-B +- sqrt(D))/2 with D = B^2 + 4 rhs
    D = (B * B + 4 * rhs) % p
    sq = np.zeros(p, dtype=bool)
    sq[(x * x) % p] = True
    counts = np.where(D == 0, 1, np.where(sq[D], 2, 0))
    if good:
        return p + 1 - (int(counts.sum()) + 1)

    # bad prime: walk the solutions and drop singular points
    sqrt_tab = np.zeros(p, dtype=np.int64)
    sqrt_tab[(x * x) % p] = x
    inv2 = pow(2, -1, p)
    smooth = 0
    for xi in np.nonzero(counts)[0]:
        xi = int(xi)
        if D[xi] == 0:
            ys = [(-int(B[xi]) * inv2) % p]
        else:
            r = int(sqrt_tab[D[xi]])
            ys = [((-int(B[xi]) + r) * inv2) % p, ((-int(B[xi]) - r) * inv2) % p]
        for y in ys:
            fx = (a1 * y - 3 * xi * xi - 2 * a2 * xi - a4) % p
            fy = (2 * y + a1 * xi + a3) % p
            if fx != 0 or fy != 0:
                smooth += 1
    return p - (smooth + 1)


@dataclass(frozen=True)
class CoefficientTable:
    """Fourier coefficients a_1..a_n_max with a certified linear tail bound.

    a[0] is unused padding so that a[n] is the n-th coefficient.  The tail
    constant C is asserted on the table, |a_n| <= C n for every tabulated n,
    and tail_terms_needed applies it to every n > n_max as well.  That
    extrapolation rests on Deligne's bound |a_n| <= d(n) sqrt(n) together
    with two facts about the divisor function: d(n)/sqrt(n) <= sqrt(3) for
    all n (equality at n = 12), and d(n) < sqrt(n) for n > 1260.  Hence
    |a_n|/n <= sqrt(3) everywhere and |a_n|/n < 1 beyond 1260.  So
    certified_tail_constant dominates the tail: it is 1.1 times the
    measured maximum (at least 1.1, since a_1 = 1), raised to sqrt(3) when
    n_max < 1260.
    """

    n_max: int
    a: np.ndarray = field(repr=False)
    tail_constant: float

    def __post_init__(self):
        if self.a.shape != (self.n_max + 1,):
            raise ValueError("coefficient array must have length n_max+1")
        if self.a[1] != 1:
            raise ValueError("a_1 must be 1 (newform normalization)")
        n = np.arange(1, self.n_max + 1)
        if float(np.max(np.abs(self.a[1:]) / n)) > self.tail_constant:
            raise ValueError("tail_constant does not dominate |a_n|/n on the table")


DIVISOR_BOUND_START = 1260  # d(n) < sqrt(n) for every n > 1260


def certified_tail_constant(a):
    """Certified C with |a_n| <= C n for all n >= 1, from a[1..n_max].

    1.1 times the measured max |a_n|/n; for tables shorter than
    DIVISOR_BOUND_START also at least sqrt(3), the Deligne bound on
    |a_n|/n that covers the untabulated n <= 1260 (see CoefficientTable).
    """
    n_max = len(a) - 1
    measured = 1.1 * float(np.max(np.abs(a[1:]) / np.arange(1, n_max + 1)))
    return measured if n_max >= DIVISOR_BOUND_START else max(measured, math.sqrt(3))


def hecke_expand(ap, bad_primes, n_max):
    """Expand prime coefficients to a full CoefficientTable.

    Good prime powers follow a_{p^r} = a_p a_{p^{r-1}} - p a_{p^{r-2}},
    bad primes use a_{p^r} = a_p^r, and coprime indices multiply.
    """
    n_max = int(n_max)
    primes = sieve_primes(n_max)
    for p in primes:
        if int(p) not in ap:
            raise ValueError(f"missing prime coefficient a_{int(p)}")
    a = np.zeros(n_max + 1, dtype=np.float64)
    if n_max >= 1:
        a[1] = 1.0
    spf = np.zeros(n_max + 1, dtype=np.int64)
    for p in primes:
        sl = spf[p::p]
        sl[sl == 0] = p
        spf[p::p] = sl
    for n in range(2, n_max + 1):
        p = int(spf[n])
        m = n
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if m > 1:
            a[n] = a[m] * a[n // m]
        elif p in bad_primes:
            a[n] = float(ap[p]) ** k
        elif k == 1:
            a[n] = ap[p]
        else:
            a[n] = ap[p] * a[p ** (k - 1)] - p * a[p ** (k - 2)]
    return CoefficientTable(n_max=n_max, a=a, tail_constant=certified_tail_constant(a))


def coefficient_table(curve, n_max):
    """Point-count a_p for p <= n_max and Hecke-expand."""
    curve = resolve_curve(curve)
    ap = {int(p): ap_count(curve, int(p)) for p in sieve_primes(n_max)}
    bad = {int(p) for p in ap if curve.N % p == 0}
    return hecke_expand(ap, bad, n_max)


def eta_fft_length(n_max):
    """FFT length of eta_deep_table_level11(n_max): the power of two >= 2 n_max."""
    return 1 << (2 * int(n_max) - 1).bit_length()


def eta_deep_table_level11(n_max):
    """Deep coefficient table for the level-11 newform via its eta product.

    The unique weight-2 newform on Gamma_0(11) equals
    q prod_{n>=1} (1-q^n)^2 (1-q^{11n})^2, so its coefficients to very large
    index come from squaring the sparse pentagonal-number series
    D = P(q) P(q^11), P(q) = sum_k (-1)^k q^{k(3k-1)/2}, with one real FFT.
    Point counting is O(p) per prime and cannot reach the ~6*10^6
    coefficients the homomorphism suite needs (verify sizes the table from
    its drawn pairs); this route can, and is cross-validated against the
    point-count/Hecke table in the tests.  The rounded product
    must be integer to ~1e-6, else we raise rather than ship noise.
    """
    n_max = int(n_max)
    L = n_max
    exps = [0]
    signs = [1.0]
    k = 1
    while k * (3 * k - 1) // 2 <= L:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= L:
                exps.append(e)
                signs.append(-1.0 if k % 2 else 1.0)
        k += 1
    exps = np.array(exps, dtype=np.int64)
    signs = np.array(signs, dtype=np.float64)
    D = np.zeros(L, dtype=np.float64)
    for e2, s2 in zip(11 * exps, signs):
        if e2 >= L:
            continue
        m = exps < L - e2
        np.add.at(D, exps[m] + e2, signs[m] * s2)
    M = eta_fft_length(L)
    F = np.fft.rfft(D, M)
    del D
    F *= F  # square the spectrum in place: no second M/2-point buffer
    prod = np.fft.irfft(F, M)[:L]
    del F
    a = np.zeros(n_max + 1, dtype=np.float64)
    np.round(prod, out=a[1:])
    prod -= a[1:]
    resid = float(np.max(np.abs(prod)))
    del prod
    if resid > 1e-6:
        raise ArithmeticError(f"eta-product FFT not integer-exact (residual {resid:.2e})")
    return CoefficientTable(n_max=n_max, a=a, tail_constant=certified_tail_constant(a))


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


def _agm(a, b, precision, cap=64):
    for _ in range(cap):
        if abs(a - b) <= precision * max(abs(a), 1e-300):
            return a
        a, b = (a + b) / 2, np.sqrt(complex(a * b))
        # principal root; keep the branch nearest the running mean
        if abs(a - b) > abs(a + b):
            b = -b
    raise ArithmeticError(f"AGM did not converge within {cap} iterations")


def agm_periods(curve, precision=1e-14):
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
        om1 = math.pi / abs(_agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2), precision))
        om2 = 1j * math.pi / abs(_agm(math.sqrt(e1 - e3), math.sqrt(e2 - e3), precision))
    else:
        e1 = max(r.real for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r)))
        e3 = min((r for r in roots if r.imag < 0), key=lambda r: r.imag)
        e2 = np.conj(e3)
        om1 = math.pi / abs(_agm(np.sqrt(complex(e1 - e3)), np.sqrt(complex(e1 - e2)), precision))
        om2 = math.pi / _agm(np.sqrt(complex(e3 - e1)), np.sqrt(complex(e3 - e2)), precision)
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
