"""Cosets of Gamma_infty \\ Gamma_0(N) ordered by the norm |cz+d|^2.

Each coset is pinned down by the lower row (c, d) of any representative,
up to the sign identification (c, d) ~ (-c, -d); we canonicalize to c > 0,
with (0, 1) for the identity coset.  coset_arrays yields the non-identity
cosets as per-c arrays; the identity (norm 1) is implied.  At z = i the
ordering norm is the integer c^2 + d^2, so enumeration is exact; for
general z bounds are computed with a safety margin and every candidate's
norm is re-checked.  One keep mask per c (_candidates) decides which
cosets are up to T: coset_arrays reads its entries, and coset_count and
the batch sizes (_group_sizes) its count.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __matmul__(self, other):
        return GammaMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return GammaMatrix(self.d, -self.b, -self.c, self.a)


def _prime_factors(c):
    """Prime factorization of c >= 1 as ascending (p, e) pairs, by trial division."""
    factors = []
    p = 2
    while p * p <= c:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            factors.append((p, e))
        p += 1
    if c > 1:
        factors.append((c, 1))
    return factors


def _unit_mask(c):
    """unit[r] is True iff gcd(r, c) = 1, for 0 <= r < c: clear [::p] for each p | c."""
    unit = np.ones(c, dtype=bool)
    for p, _ in _prime_factors(c):
        unit[::p] = False
    return unit


def volume(N):
    """Hyperbolic volume of Gamma_0(N) \\ H: (pi/3) * N * prod_{p|N} (1 + 1/p)."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    index = N
    for p, _ in _prime_factors(N):
        index = index // p * (p + 1)
    return (math.pi / 3) * index


def _candidate_range(c, T, x, y):
    """(lo, hi): every d with |cz+d|^2 <= T at z = x + iy lies in lo..hi, a margin of one inside."""
    half = math.sqrt(max(T - (c * y) ** 2, 0.0))
    return math.floor(-c * x - half) - 1, math.ceil(-c * x + half) + 1


def _candidates(c, T, x, y):
    """One c's candidate range at z = x + iy: (lo, norms, keep), entry k for d = lo + k.

    The range (_candidate_range) covers every d with |cz+d|^2 <= T;
    norms[k] = |cz+d|^2, and keep[k] holds when that norm is <= T and
    gcd(c, d) = 1.  Coprimality is read off the range itself: for each
    prime p | c the entries with p | d, every p-th one from (-lo) mod p,
    are cleared, so no gcd or residue is taken.
    """
    lo, hi = _candidate_range(c, T, x, y)
    norms = (c * x + np.arange(lo, hi + 1, dtype=np.float64)) ** 2 + (c * y) ** 2
    keep = norms <= T
    for p, _ in _prime_factors(c):
        keep[(-lo) % p :: p] = False
    return lo, norms, keep


def _denominators(N, T, z):
    """c = N, 2N, ... for every c that can have a coset with |cz+d|^2 <= T; checks the inputs."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    if not T >= 1:  # NaN too
        raise ValueError("T must be >= 1")
    c = N
    while (c * z.imag) ** 2 <= T:
        yield c
        c += N


def coset_arrays(N, T, z=1j):
    """Per-c arrays (c, ds, norms) of all non-identity cosets with |cz+d|^2 <= T.

    Yields tuples in ascending c; within each c the d values are ascending.
    The identity coset (0, 1) with norm 1 is *not* included here.  Each c's
    group is its candidate range (_candidates) cut by the norm check and by
    coprimality.
    """
    z = complex(z)
    for c in _denominators(int(N), T, z):
        lo, norms, keep = _candidates(c, T, z.real, z.imag)
        kept = np.flatnonzero(keep)
        if len(kept):
            yield c, kept + lo, norms[kept]


def _group_sizes(N, T, z=1j):
    """(c, len(ds)) for each group (c, ds, norms) of coset_arrays(N, T, z): its keep mask's count."""
    z = complex(z)
    for c in _denominators(int(N), T, z):
        count = np.count_nonzero(_candidates(c, T, z.real, z.imag)[2])
        if count:
            yield c, count


def coset_count(N, T, z=1j):
    """#(Gamma_infty \\ Gamma)^T including the identity coset."""
    return 1 + sum(n for _, n in _group_sizes(N, T, z))


def lift(c, d):
    """Canonical lift to Gamma of the coset with bottom row (c, d): 0 <= a < c, identity for (0, 1)."""
    if c < 0 or (c == 0 and d != 1):
        raise ValueError(f"non-canonical coset ({c},{d})")
    if math.gcd(c, d) != 1:
        raise ValueError(f"({c},{d}) not coprime")
    if c == 0:
        return GammaMatrix(1, 0, 0, 1)
    a = pow(d, -1, c)
    b = (a * d - 1) // c
    return GammaMatrix(a, b, c, d)
