"""One set-up of a workload in a fresh process: import the program, make the inputs.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <seed>

`run.py` times this process from spawn to exit; the median over several
probes is the `setup_s` metric.  Exits 2 when the program cannot be loaded.
"""

import sys

import workloads


def main(argv):
    root, workload, seed = argv
    try:
        workloads.load_program(root)
    except workloads.ProgramMissing as exc:
        print(f"setup probe: {exc}", file=sys.stderr)
        return 2
    workloads.jobs(workload, int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
