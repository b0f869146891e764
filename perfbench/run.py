"""Benchmark of modsymdist: time the coeffs, stats and verify workloads, check every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {coeffs,stats,verify} --seed N --seconds S --trace {0,1}

The program is driven from outside through its public entry points:
`modsymdist.cli.main(argv)` in-process with stdout captured, and
`verify.run_acceptance`.  One process runs one workload, so that `setup_s`
and `peak_rss_mb` belong to it.

With `--trace 0` the workload's jobs run back to back as timed passes for
about `--seconds` seconds (at least one pass); the end-to-end metrics are
`wall_s` (the jobs' median times summed), `setup_s` (median of
fresh-process set-ups) and `peak_rss_mb`.  With `--trace 1` one untraced pass is followed by one pass
with every public function wrapped (see tracer.py); the per-layer metrics
come from the traced pass, and `trace.overhead_s` is traced minus untraced
wall time.  Outputs of every pass are checked after the timed region
(check.py); the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Exits 2 without a result when the
checkout holds no program.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

SELF_TIMED = (
    "curve.ap_count", "curve.hecke_expand", "curve.coefficient_table",
    "curve.eta_deep_table_level11", "curve.agm_periods",
    "cosets.coset_arrays", "cosets.coset_count",
    "modsym.symbols_up_to", "modsym.pairing", "modsym.oracle_pairing", "modsym.antiderivative",
    "series.sharp_sum", "series.smoothed_sum", "series.eisenstein_twisted", "series.cfsum",
    "petersson.rankin_estimate",
    "stats.normalize_arrays", "stats.moments_from_arrays", "stats.ks_distance", "stats.histogram",
    "cli.main",
)
CALL_COUNTED = ("curve.ap_count", "modsym.pairing", "modsym.oracle_pairing", "series.sharp_sum")
ARG_COUNTED = (
    "curve.coefficient_table.terms", "curve.eta_deep_table_level11.fft_len",
    "cosets.coset_arrays.cosets",
    "modsym.symbols_up_to.symbols", "modsym.symbols_up_to.c_groups", "modsym.symbols_up_to.terms",
    "modsym.pairing.terms", "series.cfsum.values", "stats.moments_from_arrays.values",
)
CRITERIA = tuple(f"{k:02d}" for k in range(1, 14))  # verify criterion keys 01..13

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    [(f"{name}.s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALL_COUNTED]
    + [(name, "count") for name in ARG_COUNTED]
    + [("cli.out_bytes", "bytes"), ("verify.shared_resources.s", "s")]
    + [(f"verify.crit{key}.s", "s") for key in CRITERIA]
    + [(f"{mod}.total.s", "s") for mod in tracing.MODULES]
    + [(f"{mod}.errors", "count") for mod in tracing.MODULES]
    + [
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"), ("trace.counters_s", "s"), ("trace.spans", "count"),
        ("trace.span_cost_s", "s"),
    ]
)


@dataclass
class Pass:
    wall: float
    results: list


def run_cli(program, job):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = program.cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising job is a failed operation, not a failed benchmark
        return check.JobResult(job.id, None, out.getvalue(), repr(exc))
    return check.JobResult(job.id, rc, out.getvalue(), err.getvalue())


def run_verify(program, job):
    log_times = []
    start = time.perf_counter()
    try:
        results = program.verify.run_acceptance(
            "11a", quick=False, threads=1, seed=job.seed,
            log=lambda msg: log_times.append(time.perf_counter()),
        )
    except Exception as exc:  # every criterion of a raising run counts as failed
        return check.JobResult(job.id, None, error=repr(exc))
    extra = {f"crit{r.key}": r.seconds for r in results}
    # the first log line is written once the shared tables and batches are built
    extra["shared_resources"] = (log_times[0] if log_times else start) - start
    return check.JobResult(job.id, 0, "".join(r.status[0] for r in results), extra=extra)


def run_pass(program, jobs, tracer=None):
    results = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        job_start = time.perf_counter()
        result = run_verify(program, job) if job.kind == "verify" else run_cli(program, job)
        result.seconds = time.perf_counter() - job_start
        results.append(result)
    return Pass(time.perf_counter() - start, results)


def median_wall(passes):
    """Sum over jobs of each job's median time across passes.

    The machine's speed has short dips (a fixed kernel runs up to 70% slower
    for about a second at a time), so a slow dip in one job of one pass is
    discarded here, where the median of whole passes would keep it.
    """
    per_job = zip(*[[r.seconds for r in p.results] for p in passes])
    return sum(statistics.median(times) for times in per_job)


def timed_passes(program, jobs, seconds):
    """Passes until another one would end after `seconds`; at least one."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(program, jobs))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import the program and make the inputs."""
    samples = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise workloads.ProgramMissing(proc.stderr.strip() or f"setup probe exited {proc.returncode}")
    return statistics.median(samples), samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def layer_metrics(tracer, jobs, traced, untraced):
    self_s, calls, errors, root_s = tracer.summary()
    values = {f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIMED}
    values.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED})
    values.update({name: tracer.counts.get(name, 0) for name in ARG_COUNTED})
    values["cli.out_bytes"] = sum(
        len(r.output.encode()) for r, job in zip(traced.results, jobs) if job.kind == "cli"
    )
    extra = {}
    for r in traced.results:
        extra.update(r.extra)
    values["verify.shared_resources.s"] = extra.get("shared_resources", 0.0)
    values.update({f"verify.crit{key}.s": extra.get(f"crit{key}", 0.0) for key in CRITERIA})
    for mod in tracing.MODULES:
        values[f"{mod}.total.s"] = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        values[f"{mod}.errors"] = errors.get(mod, 0)
    values["trace.wall_s"] = traced.wall
    values["trace.untraced_wall_s"] = untraced.wall
    values["trace.overhead_s"] = traced.wall - untraced.wall
    values["trace.unattributed_s"] = traced.wall - root_s
    values["trace.counters_s"] = self_s.get(tracing.COUNTER_SPAN, 0.0)
    values["trace.spans"] = len(tracer.spans)
    values["trace.span_cost_s"] = len(tracer.spans) * tracer.span_cost()
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, self_s


def write_spans(tracer, self_s, workload, seed):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    keys = ("name", "start", "end", "parent", "job", "raised")
    with open(path, "w") as f:
        json.dump(
            {
                "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
                "spans": [dict(zip(keys, span)) for span in tracer.spans],
            },
            f,
        )
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        program = workloads.load_program(ROOT)
        jobs = workloads.jobs(args.workload, args.seed)
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
        reference = json.loads(REFERENCE.read_text())
    except (workloads.ProgramMissing, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = run_pass(program, jobs)
        tracer = tracing.Tracer(program)
        tracer.install()
        try:
            traced = run_pass(program, jobs, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
    else:
        passes = timed_passes(program, jobs, args.seconds)
    peak = peak_rss_mb()

    extra = {}
    if args.workload == "coeffs":
        extra["petersson-11a"] = check.table_11a_problems(program)
    attempted, failed, problems = check.tally(
        [r for p in passes for r in p.results], reference, extra
    )
    walls = [p.wall for p in passes]

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es): "
          + ", ".join(f"{w:.3f} s" for w in walls))
    for k, job in enumerate(jobs):
        times = ", ".join(f"{p.results[k].seconds:.3f}" for p in passes)
        print(f"  {job.id}: {times} s")
        for p in passes:
            if p.results[k].extra:
                print("    " + ", ".join(f"{key} {v:.2f}" for key, v in p.results[k].extra.items()))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_samples))
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    print(f"error_rate {failed / attempted:.4g} ({failed} failed / {attempted} attempted operations)")

    if args.trace:
        metrics, self_s = layer_metrics(tracer, jobs, traced, untraced)
        path = write_spans(tracer, self_s, args.workload, args.seed)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  self {secs:8.3f} s  {100 * secs / traced.wall:5.1f}%  {name}")
    else:
        values = {"wall_s": median_wall(passes), "setup_s": setup_s, "peak_rss_mb": peak}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
