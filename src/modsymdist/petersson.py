"""Two independent estimates of the Petersson norm ||f||^2.

Rankin-Selberg unfolding identifies ||f||^2 with vol/(16 pi^2) times the
mean value R of a_n^2 / n, estimated here from Cesaro-smoothed partial sums;
for curves of known modular degree the period lattice gives the exact
||f||^2 = deg * area / (4 pi^2) (Manin constant 1 for the shipped presets).
Two or three significant digits suffice: the norm only enters normalizations
checked at 10-20% tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

RANKIN_MIN_X = 1000


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "rankin" | "lattice"
    spread: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("norm estimate must be positive")


def rankin_estimate(table, N, X):
    """||f||^2 = vol/(16 pi^2) * mean_{Y in [X/2, X]} (1/Y) sum_{n<=Y} a_n^2/n.

    The window average damps the oscillation from symmetric-square zeros;
    spread is (max - min)/value over the window.
    """
    from .cosets import volume

    X = int(X)
    if X < RANKIN_MIN_X:
        raise ValueError(f"X={X} too small; need X >= {RANKIN_MIN_X}")
    if X > table.n_max:
        raise ValueError(f"X={X} exceeds table n_max={table.n_max}")
    n = np.arange(1, X + 1)
    partial = np.cumsum(table.a[1 : X + 1] ** 2 / n)
    ys = np.arange(X // 2, X + 1)
    window = (volume(N) / (16 * math.pi ** 2)) * partial[ys - 1] / ys
    value = float(window.mean())
    spread = float((window.max() - window.min()) / value)
    return NormEstimate(value=value, method="rankin", spread=spread)


def lattice_norm(lattice, modular_degree):
    """||f||^2 = degree * area(lattice) / (4 pi^2), exact up to the AGM."""
    degree = int(modular_degree)
    if degree < 1:
        raise ValueError("modular degree must be >= 1")
    value = degree * lattice.area / (4 * math.pi ** 2)
    return NormEstimate(value=value, method="lattice", spread=0.0)
