"""Cosets of Gamma_infty \\ Gamma_0(N) ordered by the norm |cz+d|^2.

Each coset is pinned down by the lower row (c, d) of any representative,
up to the sign identification (c, d) ~ (-c, -d); we canonicalize to c > 0,
with (0, 1) for the identity coset.  coset_arrays yields the non-identity
cosets as per-c arrays; the identity (norm 1) is implied.  At z = i the
ordering norm is the integer c^2 + d^2, so enumeration is exact; for
general z bounds are computed with a safety margin and every candidate's
norm is re-checked.
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


def _candidates(c, T, x, y):
    """One c's candidate range at z = x + iy: (lo, norms, keep), entry k for d = lo + k.

    The range covers every d with |cz+d|^2 <= T, with a margin of one on
    each side; norms[k] = |cz+d|^2, and keep[k] holds when that norm is
    <= T and gcd(c, d) = 1.  Coprimality is read off the range itself: for
    each prime p | c the entries with p | d, every p-th one from (-lo) mod p,
    are cleared, so no gcd or residue is taken.
    """
    half = math.sqrt(max(T - (c * y) ** 2, 0.0))
    lo = math.floor(-c * x - half) - 1
    hi = math.ceil(-c * x + half) + 1
    norms = (c * x + np.arange(lo, hi + 1, dtype=np.float64)) ** 2 + (c * y) ** 2
    keep = norms <= T
    for p, _ in _prime_factors(c):
        keep[(-lo) % p :: p] = False
    return lo, norms, keep


def coset_arrays(N, T, z=1j):
    """Per-c arrays (c, ds, norms) of all non-identity cosets with |cz+d|^2 <= T.

    Yields tuples in ascending c; within each c the d values are ascending.
    The identity coset (0, 1) with norm 1 is *not* included here.  Each c's
    group is its candidate range (_candidates) cut by the norm check and by
    coprimality.
    """
    N = int(N)
    z = complex(z)
    x, y = z.real, z.imag
    if N < 1:
        raise ValueError("N must be a positive integer")
    if y <= 0:
        raise ValueError("z must lie in the upper half-plane")
    if T < 1:
        raise ValueError("T must be >= 1")
    c = N
    while (c * y) ** 2 <= T:
        lo, norms, keep = _candidates(c, T, x, y)
        kept = np.flatnonzero(keep)
        if len(kept):
            yield c, kept + lo, norms[kept]
        c += N


def _group_into(c, T, z, norms):
    """Write coset_arrays' norms for c into norms, bit for bit, and return its ds.

    norms must have exactly the group's length, which np.compress checks.
    The values come from the same _candidates call, so a caller that
    counted the groups in one pass can fill them in place in another; the
    ds (int64, ascending) are a new array the caller may drop once read.
    """
    lo, cand, keep = _candidates(c, T, z.real, z.imag)
    np.compress(keep, cand, out=norms)
    return np.flatnonzero(keep) + lo


def coset_count(N, T, z=1j):
    """#(Gamma_infty \\ Gamma)^T including the identity coset."""
    return 1 + sum(len(ds) for _, ds, _ in coset_arrays(N, T, z))


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
