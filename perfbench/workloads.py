"""The three benchmark workloads: named jobs driven through the public entry points.

A job is a `modsymdist` CLI call (argv for `cli.main`, one operation) or a
full `verify.run_acceptance` (one operation per criterion).  Only the
`verify` workload takes its input from the seed (the random Gamma_0(11)
elements of criteria 01 and 03); `coeffs` and `stats` are fixed inputs, so
every seed gives the same jobs.
"""

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("coeffs", "stats", "verify")


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/modsymdist` to benchmark."""


def load_program(root):
    """Import `modsymdist` (with `cli` and `verify`) from `<root>/src`, never from elsewhere."""
    package_dir = (Path(root) / "src" / "modsymdist").resolve()
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no package at {package_dir}")
    sys.path.insert(0, str(package_dir.parent))
    program = importlib.import_module("modsymdist")
    if Path(program.__file__).resolve().parent != package_dir:
        raise ProgramMissing(f"modsymdist imported from {program.__file__}, not {package_dir}")
    importlib.import_module("modsymdist.cli")
    importlib.import_module("modsymdist.verify")
    return program


CURVE_14A = "1,0,1,4,-6,14"
CURVE_43A = "0,1,1,0,0,43"
CURVE_389A = "0,1,1,-2,0,389"


@dataclass(frozen=True)
class Job:
    """One job of a workload.

    `kind` is "cli" (argv for `modsymdist.cli.main`) or "verify" (seed for
    `verify.run_acceptance("11a", quick=False, threads=1, seed=...)`).
    """

    id: str
    kind: str
    argv: tuple = ()
    seed: int = 0


def _cli(job_id, *argv):
    return Job(job_id, "cli", tuple(argv))


# O(p) point counting is ~95% of the time: prime, composite and large
# conductors, good- and bad-prime paths; no symbols, reductions or quadrature.
COEFFS_JOBS = (
    _cli("petersson-11a", "petersson", "--curve", "11a", "--X", "40000"),
    _cli("petersson-37a", "petersson", "--curve", "37a", "--X", "30000"),
    _cli("coeffs-14a", "coeffs", "--curve", CURVE_14A, "--n-max", "20000"),
    _cli("coeffs-43a", "coeffs", "--curve", CURVE_43A, "--n-max", "20000"),
    _cli("coeffs-389a", "coeffs", "--curve", CURVE_389A, "--n-max", "20000"),
)

# Exact reductions, the per-c DFT kernel and table builds at n_max ~ 15-17k;
# the 37a job takes the general-z coset path (non-integer norms).
STATS_JOBS = (
    _cli("moments-11a", "moments", "--curve", "11a", "--T", "1e7", "--nmax", "4", "--mmax", "4"),
    _cli("sums-abs2", "sums", "--curve", "11a", "--weight", "abs2:1", "--T-grid", "1e5,1e6,1e7"),
    _cli("sums-f20-smooth", "sums", "--curve", "11a", "--weight", "f:2,0",
         "--T-grid", "1e5,1e6,1e7", "--smooth-U", "10"),
    _cli("histogram-im", "histogram", "--curve", "11a", "--T", "1e7", "--component", "im",
         "--bins", "40"),
    _cli("eisenstein-11", "eisenstein", "--curve", "11a", "--m", "1", "--n", "1",
         "--T-max", "1e7"),
    _cli("moments-37a-z", "moments", "--curve", "37a", "--T", "1e7", "--z", "0.25,0.9",
         "--nmax", "4", "--mmax", "4"),
)


def jobs(workload, seed):
    """The jobs of `workload` for `seed`, in the order they run."""
    if workload == "coeffs":
        return COEFFS_JOBS
    if workload == "stats":
        return STATS_JOBS
    if workload == "verify":
        return (Job("verify-11a", "verify", seed=int(seed)),)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
