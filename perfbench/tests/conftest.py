import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="session")
def program():
    return workloads.load_program(BENCH.parent)
