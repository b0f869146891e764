"""Petersson norm: Rankin partial sums vs period-lattice area."""

import math

import pytest

from modsymdist.curve import agm_periods
from modsymdist.petersson import NormEstimate, lattice_norm, rankin_estimate


def test_rankin_positive_and_stable(table11):
    e1 = rankin_estimate(table11, 11, 10 ** 4)
    e2 = rankin_estimate(table11, 11, 2 * 10 ** 4)
    assert e1.value > 0 and e2.value > 0
    assert abs(e2.value / e1.value - 1) < 0.05  # X-doubling stability
    assert e2.spread < 0.05


def test_rankin_matches_lattice_11a(table11, lattice11):
    r = rankin_estimate(table11, 11, 2 * 10 ** 4)
    lat = lattice_norm(lattice11, 1)
    assert abs(r.value / lat.value - 1) < 0.05


def test_rankin_detects_modular_degree_37a(table37):
    # ||f||^2 = deg * area/(4 pi^2); the Rankin value pins deg(37a) = 2
    r = rankin_estimate(table37, 37, 2 * 10 ** 4)
    lat = agm_periods("37a")
    ratio = r.value / (lat.area / (4 * math.pi ** 2))
    assert ratio == pytest.approx(2.0, abs=0.1)
    assert abs(r.value / lattice_norm(lat, 2).value - 1) < 0.05


def test_rankin_truncation_consistency(table11):
    # halved table vs full table: change bounded by twice the spread
    full = rankin_estimate(table11, 11, 2 * 10 ** 4)
    half = rankin_estimate(table11, 11, 10 ** 4)
    assert abs(half.value - full.value) <= 2 * max(half.spread, full.spread) * full.value


def test_rankin_rejects_bad_X(table11):
    with pytest.raises(ValueError):
        rankin_estimate(table11, 11, 500)
    with pytest.raises(ValueError):
        rankin_estimate(table11, 11, table11.n_max + 1)


def test_lattice_norm_arithmetic(lattice11):
    v1 = lattice_norm(lattice11, 1)
    v2 = lattice_norm(lattice11, 2)
    assert v2.value == pytest.approx(2 * v1.value, rel=1e-15)  # linear in degree
    assert v1.value == pytest.approx(lattice11.area / (4 * math.pi ** 2), rel=1e-15)
    with pytest.raises(ValueError):
        lattice_norm(lattice11, 0)


def test_lattice_norm_unit_area_case():
    class FakeLat:
        area = 4 * math.pi ** 2

    assert lattice_norm(FakeLat(), 1).value == pytest.approx(1.0, rel=1e-15)


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(value=-1.0, method="rankin", spread=0.0)
