"""Self-test of the benchmark: injected faults count as failed operations.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json

import pytest

import check
import run
import tracer as tracing
import workloads
from check import JobResult

REFERENCE = json.loads(run.REFERENCE.read_text())


def failed(*results):
    return check.tally(list(results), REFERENCE)[1]


def replace_row(text, row, column, value):
    rows = text.split("\n")
    cells = rows[row].split(",")
    cells[column] = value
    rows[row] = ",".join(cells)
    return "\n".join(rows)


@pytest.fixture(scope="module")
def coeffs_14a(program):
    job = next(j for j in workloads.COEFFS_JOBS if j.id == "coeffs-14a")
    result = run.run_cli(program, job)
    assert result.returncode == 0
    return result.output


def test_coeffs_output_passes(coeffs_14a):
    assert failed(JobResult("coeffs-14a", 0, coeffs_14a)) == 0


def test_one_wrong_ap_is_a_failure(coeffs_14a):
    # row n holds a_n; a_17 = 6 for 14a, so 5 stays inside the Hasse bound
    assert coeffs_14a.split("\n")[17] == "17,6"
    bad = replace_row(coeffs_14a, 17, 1, "5")
    assert failed(JobResult("coeffs-14a", 0, bad)) == 1
    problems = check.coeffs_csv_problems(replace_row(coeffs_14a, 17, 1, "9"), "")
    assert any("a_17 = 9 violates" in p for p in problems)


def test_11a_table_matches_eta_product(program):
    assert check.table_11a_problems(program, 3000) == []


def test_perturbed_moment_is_a_failure():
    ref = REFERENCE["moments-11a"]["text"]
    row = 21  # n=4, m=0
    value = float(ref.split("\n")[row].split(",")[2])
    assert failed(JobResult("moments-11a", 0, ref)) == 0
    last_bit = replace_row(ref, row, 2, repr(value * (1 + 4e-16)))
    assert failed(JobResult("moments-11a", 0, last_bit)) == 0
    dropped_term = replace_row(ref, row, 2, repr(value * (1 + 1e-7)))
    assert failed(JobResult("moments-11a", 0, dropped_term)) == 1


def test_noise_imaginary_part_is_judged_on_its_pair():
    ref = REFERENCE["sums-f20-smooth"]["text"]
    # im_value is ~1e-11 rounding noise next to re_value ~2e3
    moved_noise = replace_row(ref, 3, 3, "-2.1e-11")
    assert failed(JobResult("sums-f20-smooth", 0, moved_noise)) == 0
    moved_real = replace_row(ref, 3, 2, "2256.33")
    assert failed(JobResult("sums-f20-smooth", 0, moved_real)) == 1


def test_histogram_zero_edge_is_compared_by_sum():
    ref = REFERENCE["histogram-im"]["text"]
    rows = ref.split("\n")
    k = next(i for i, r in enumerate(rows[1:], start=1) if r.startswith("0.0,"))
    lo, hi = int(rows[k - 1].split(",")[2]), int(rows[k].split(",")[2])
    shifted = replace_row(replace_row(ref, k - 1, 2, str(lo - 500)), k, 2, str(hi + 500))
    assert failed(JobResult("histogram-im", 0, shifted)) == 0
    lost = replace_row(ref, k, 2, str(hi - 1))
    assert failed(JobResult("histogram-im", 0, lost)) == 1
    elsewhere = replace_row(replace_row(ref, 3, 2, "34"), 4, 2, "69")
    assert failed(JobResult("histogram-im", 0, elsewhere)) == 1


def test_flipped_criterion_is_a_failure():
    status = REFERENCE["verify-11a"]["status"]
    assert status == "PPPPFPFPPPFPP"
    assert failed(JobResult("verify-11a", 0, status)) == 0
    flipped = status[:4] + "P" + status[5:]
    assert failed(JobResult("verify-11a", 0, flipped)) == 1
    assert failed(JobResult("verify-11a", None, error="MemoryError()")) == len(status)


def test_raising_or_nonzero_job_is_a_failure():
    assert failed(JobResult("eisenstein-11", None, error="ValueError()")) == 1
    assert failed(JobResult("eisenstein-11", 1, "")) == 1


def test_extra_problems_fail_their_job():
    ref = REFERENCE["petersson-11a"]["text"]
    attempted, n, _ = check.tally(
        [JobResult("petersson-11a", 0, ref)], REFERENCE, {"petersson-11a": ["a_2 differs"]}
    )
    assert (attempted, n) == (1, 1)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_spans_nest_and_restore(program):
    original = program.modsym.coset_arrays
    tracer = tracing.Tracer(program)
    tracer.install()
    try:
        assert program.modsym.coset_arrays is not original
        assert program.symbols_up_to is program.modsym.symbols_up_to
        job = workloads.Job("sums-small", "cli", ("sums", "--curve", "11a", "--T-grid", "1e3,1e4"))
        result = run.run_pass(program, [job], tracer)
    finally:
        tracer.uninstall()
    assert program.modsym.coset_arrays is original
    assert result.results[0].returncode == 0
    self_s, calls, errors, root_s = tracer.summary()
    assert calls["cli.main"] == 1 and calls["modsym.symbols_up_to"] == 1
    assert calls["cosets.coset_arrays"] == 1 and calls["curve.ap_count"] > 100
    assert sum(self_s.values()) == pytest.approx(root_s)
    assert root_s <= result.wall
    assert not errors
    assert tracer.counts["cosets.coset_arrays.cosets"] == tracer.counts["modsym.symbols_up_to.symbols"]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["cosets.coset_arrays"] == "modsym.symbols_up_to"
    assert parents["curve.ap_count"] == "curve.coefficient_table"
