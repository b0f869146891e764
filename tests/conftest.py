import tracemalloc

import pytest

from modsymdist import curve as curve_mod
from modsymdist import modsym


@pytest.fixture(scope="session")
def curve11():
    return curve_mod.PRESETS["11a"]


@pytest.fixture(scope="session")
def curve37():
    return curve_mod.PRESETS["37a"]


@pytest.fixture(scope="session")
def table11():
    return curve_mod.coefficient_table("11a", 30000)


@pytest.fixture(scope="session")
def table37():
    return curve_mod.coefficient_table("37a", 20000)


@pytest.fixture(scope="session")
def lattice11():
    return curve_mod.agm_periods("11a")


@pytest.fixture(scope="session")
def batch11_1e4(table11):
    return modsym.symbols_up_to(table11, 11, 10 ** 4, z=1j, tol=1e-12)


@pytest.fixture(scope="session")
def batch11_1e5(table11):
    return modsym.symbols_up_to(table11, 11, 10 ** 5, z=1j, tol=1e-10)


@pytest.fixture(scope="session")
def batch11_1e7(table11):
    return modsym.symbols_up_to(table11, 11, 10 ** 7, z=1j, tol=1e-10)


def _traced_peak(fn):
    """(peak bytes tracemalloc sees while fn() runs, fn's result); numpy's buffers count."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak
