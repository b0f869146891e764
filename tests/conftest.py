import tracemalloc

import numpy.fft  # noqa: F401  np.fft imports it on first use: no traced peak counts that load
import pytest

from modsymdist import curve as curve_mod
from modsymdist import modsym, series


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
    """(peak bytes tracemalloc sees while fn() runs, fn's result); numpy's buffers count.

    modsym's cached prime-power inverse tables are dropped first, so fn
    builds every table it reads whatever ran before it in the process.
    """
    modsym._prime_power_inverses.cache_clear()
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak


def _fixed_bytes(keys, group=0):
    """Bytes a blocked reduction holds that do not shrink with the block.

    Each of its `keys` exact sums holds two int64 bin arrays of
    series._SUM_BINS entries.  While _ExactSum.add folds a segment in, it
    holds one np.bincount output over both signs' exponent fields (4096
    float64) and three arrays of _SUM_BINS entries: the folded bin sums
    with their scaled and integer copies.  A reduction over a symbol
    stream also holds the current c group's ds, norms and values: 32 bytes
    a symbol of the input's largest group.
    """
    bins = 8 * series._SUM_BINS
    sums = (keys * 2 * bins + 8 * 4096 + 3 * bins) if keys else 0
    return sums + 32 * group


@pytest.fixture(scope="session")
def fixed_bytes():
    return _fixed_bytes
