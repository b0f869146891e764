"""Record the reference outputs that check.py compares every run against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs every job of every workload once (verify at seed 11) and writes
perfbench/reference.json: a SHA-256 for `coeffs` CSVs, the full text of the
float outputs, and the `verify` status vector.  Run it only when a change is
meant to alter outputs, and say so in the change.
"""

import json
import sys

import check
import run
import workloads


def main():
    program = workloads.load_program(run.ROOT)
    reference = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, 11):
            result = run.run_pass(program, [job]).results[0]
            if result.returncode != 0:
                print(f"{job.id}: failed ({result.returncode}, {result.error})", file=sys.stderr)
                return 1
            if job.kind == "verify":
                reference[job.id] = {"status": result.output}
            elif job.argv[0] == "coeffs":
                reference[job.id] = {"sha256": check.digest(result.output)}
            else:
                reference[job.id] = {"text": result.output}
            print(f"{job.id}: recorded", file=sys.stderr)
    problems = check.table_11a_problems(program)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
