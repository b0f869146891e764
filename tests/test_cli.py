"""CLI surface: formats, flags, validation, determinism.

Also checks that the README's library quickstart names only API that exists
and that its command lines parse.
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import modsymdist
from modsymdist import cli, cosets, curve as curve_mod, modsym
from modsymdist.cli import _check_shared, _symbols_for, _csv_cell, _emit_rows, build_parser, main
from modsymdist.cosets import coset_arrays
from modsymdist.curve import resolve_curve
from modsymdist.series import _SUM_CHUNK

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_hand_count(capsys):
    code, out = run_cli(capsys, "enumerate", "--N", "11", "--T", "122")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,d,norm"
    assert len(lines) == 4  # header + 3 rows
    assert lines[1].startswith("0,1,")
    assert lines[2].startswith("11,-1,") and lines[3].startswith("11,1,")


def test_enumerate_uses_curve_conductor(capsys):
    code, out = run_cli(capsys, "enumerate", "--curve", "37a", "--T", "1370")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert all(r.split(",")[0] in ("0", "37") for r in rows)


def test_enumerate_json_format(capsys):
    code, out = run_cli(capsys, "enumerate", "--N", "11", "--T", "122", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert recs == [
        {"c": 0, "d": 1, "norm": 1.0},
        {"c": 11, "d": -1, "norm": 122.0},
        {"c": 11, "d": 1, "norm": 122.0},
    ]


def test_coeffs_csv(capsys):
    code, out = run_cli(capsys, "coeffs", "--curve", "11a", "--n-max", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,a_n"
    assert lines[1] == "1,1"
    assert lines[2] == "2,-2"
    assert lines[10] == "10,-2"


def test_symbols_csv_header_and_identity(capsys):
    code, out = run_cli(capsys, "symbols", "--curve", "11a", "--T", "500", "--tol", "1e-10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,d,norm,re_symbol,im_symbol,err_bound"
    assert lines[1].startswith("0,1,1.0,0.0,0.0")
    assert len(lines) > 2


def test_sums_csv_and_thread_determinism(capsys):
    args = ["sums", "--curve", "11a", "--weight", "abs2:1", "--T-grid", "1000,4000", "--tol", "1e-9"]
    code1, out1 = run_cli(capsys, *args, "--threads", "1")
    code4, out4 = run_cli(capsys, *args, "--threads", "4")
    assert code1 == code4 == 0
    assert out1 == out4  # byte-identical across thread counts
    lines = out1.strip().split("\n")
    assert lines[0] == "T,count,re_value,im_value,mode,theory_leading_re,theory_leading_im"
    assert len(lines) == 3
    assert ",sharp," in lines[1]


def test_sums_smoothed_mode(capsys):
    code, out = run_cli(
        capsys, "sums", "--curve", "11a", "--weight", "one", "--T", "1000", "--smooth-U", "10",
        "--tol", "1e-9",
    )
    assert code == 0
    assert "smoothed(U=10)" in out


def test_sums_rejects_bad_weight(capsys):
    code = main(["sums", "--curve", "11a", "--weight", "bogus", "--T", "100"])
    assert code == 1


def test_moments_csv(capsys):
    code, out = run_cli(
        capsys, "moments", "--curve", "11a", "--T", "20000", "--nmax", "2", "--mmax", "2",
        "--tol", "1e-9",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,empirical,gaussian_limit"
    assert lines[1].startswith("0,0,1.0,1.0")
    assert len(lines) == 10  # header + 3x3 moment pairs


def test_histogram_csv(capsys):
    code, out = run_cli(
        capsys, "histogram", "--curve", "11a", "--T", "20000", "--component", "re",
        "--bins", "5", "--range=-3,3", "--tol", "1e-9",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count,expected"
    assert len(lines) == 6


def test_petersson_json(capsys):
    code, out = run_cli(capsys, "petersson", "--curve", "11a", "--X", "5000")
    assert code == 0
    rows = json.loads(out)
    assert [r["method"] for r in rows] == ["rankin", "lattice"]
    assert abs(rows[0]["value"] / rows[1]["value"] - 1) < 0.05


def test_petersson_unknown_degree_rankin_only(capsys):
    # 14a is no preset: no modular degree, so no lattice estimate
    code, out = run_cli(capsys, "petersson", "--curve", "1,0,1,4,-6,14", "--X", "5000")
    assert code == 0
    rows = json.loads(out)
    assert [r["method"] for r in rows] == ["rankin"]


@pytest.mark.parametrize("name, model", [("11a", "0,-1,1,-10,-20,11"), ("37a", "0,0,1,-1,0,37")])
def test_petersson_spelled_out_preset_keeps_the_lattice(capsys, name, model):
    # the degree is looked up by the resolved model, so either spelling gets the lattice
    code, by_name = run_cli(capsys, "petersson", "--curve", name, "--X", "5000")
    assert code == 0 and [r["method"] for r in json.loads(by_name)] == ["rankin", "lattice"]
    assert run_cli(capsys, "petersson", "--curve", model, "--X", "5000") == (0, by_name)


class _PointCounted(Exception):
    """Raised by the patched curve.ap_count: the command counted points."""


@pytest.fixture
def ap_count_raises(monkeypatch):
    def ap_count(*_):
        raise _PointCounted
    monkeypatch.setattr(curve_mod, "ap_count", ap_count)


# every command that builds a symbol batch, at T = 10^5
_BATCH_COMMANDS = {
    "moments": ["moments", "--T", "1e5"],
    "sums": ["sums", "--weight", "abs2:1", "--T-grid", "1e4,1e5"],
    "histogram": ["histogram", "--T", "1e5"],
    "eisenstein": ["eisenstein", "--m", "1", "--n", "1", "--T-max", "1e5"],
    "symbols": ["symbols", "--T", "1e5"],
}


@pytest.mark.parametrize("curve", ["11a", "0,-1,1,-10,-20,11"])
@pytest.mark.parametrize("command", _BATCH_COMMANDS)
def test_11a_batches_count_no_points(capsys, ap_count_raises, command, curve):
    # 11a's model, by name or spelled out, takes its table from the eta product
    code, out = run_cli(capsys, *_BATCH_COMMANDS[command], "--curve", curve)
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--curve", "37a", "--T", "1e4"],
        ["symbols", "--curve", "1,0,1,4,-6,14", "--T", "1e3"],  # 14a, no preset
        # 121b's model (discriminant -11^3) given N = 11: a wrong conductor must not
        # get 11a's newform
        ["symbols", "--curve", "0,-1,1,-7,10,11", "--T", "1e3"],
        ["coeffs", "--curve", "11a"],
        ["petersson", "--curve", "11a"],
    ],
    ids=["37a", "14a", "121b-at-11", "coeffs-11a", "petersson-11a"],
)
def test_other_tables_count_points(ap_count_raises, argv):
    with pytest.raises(_PointCounted):
        main(argv)


@pytest.mark.parametrize("z", ["0,1", "0.25,0.9"])
@pytest.mark.parametrize("command", _BATCH_COMMANDS)
def test_eta_table_prints_the_point_count_bytes(capsys, monkeypatch, command, z):
    argv = [*_BATCH_COMMANDS[command], "--z", z]
    code, eta = run_cli(capsys, *argv)
    assert code == 0 and eta
    # force _symbols_for back onto point counting and Hecke expansion
    monkeypatch.setattr(curve_mod, "eta_deep_table_level11",
                        lambda n_max: curve_mod.coefficient_table(curve_mod.PRESETS["11a"], n_max))
    assert run_cli(capsys, *argv) == (0, eta)


def test_eisenstein_json(capsys):
    code, out = run_cli(
        capsys, "eisenstein", "--curve", "11a", "--m", "1", "--n", "0",
        "--s-re", "2", "--T-max", "20000", "--tol", "1e-9",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["m"] == 1 and rec["n"] == 0
    assert rec["tail_estimate"] >= 0
    assert rec["count"] > 1000


def test_eisenstein_rejects_low_s(capsys):
    code = main(["eisenstein", "--curve", "11a", "--s-re", "0.9", "--T-max", "2000"])
    assert code == 1


def _refused(capsys, *argv):
    """stderr of a command that must exit 1 and print nothing on stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_config_validation(capsys):
    assert "Im(z) must be positive" in _refused(capsys, "symbols", "--z", "0,-1")
    assert "T must be" in _refused(capsys, "symbols", "--T", "0.5")
    with pytest.raises(SystemExit) as exc:  # argparse refuses the format
        main(["coeffs", "--n-max", "10", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    # exactly two finite components of z, Im z > 0; T >= 1 and tol > 0, both finite
    for z in ("5", "0,1,7", "0,nan", "nan,1", "0,inf"):
        assert "z" in _refused(capsys, "symbols", "--z", z)
    for T in ("0", "nan", "inf"):
        assert "T must be" in _refused(capsys, "symbols", "--T", T)
    assert "T must be" in _refused(capsys, "sums", "--T-grid", "1e3,nan")
    for tol in ("0", "-1e-10", "nan", "inf"):
        assert "tol" in _refused(capsys, "symbols", f"--tol={tol}")


def test_T_zero_is_rejected_not_replaced(capsys):
    # --T 0 used to fall back to the 1e4 default and print 795 cosets
    code = main(["enumerate", "--N", "11", "--T", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: T must be >= 1\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["symbols", "--T", "500", "--z", "5"], "z must be two finite numbers"),
        (["symbols", "--T", "500", "--z", "0,1,7"], "z must be two finite numbers"),
        (["symbols", "--T", "500", "--z", "0,nan"], "z must be two finite numbers"),
        (["symbols", "--T", "nan"], "T must be >= 1"),
        (["symbols", "--T", "inf"], "T must be finite"),
        (["symbols", "--T", "500", "--tol", "nan"], "tol must be positive and finite"),
        (["symbols", "--T", "500", "--tol", "inf"], "tol must be positive and finite"),
        (["eisenstein", "--T-max", "nan"], "T-max must be >= 1 and finite"),
        (["eisenstein", "--T-max", "inf"], "T-max must be >= 1 and finite"),
        (["eisenstein", "--s-im", "nan"], "s must be finite"),
        (["sums", "--T", "1000", "--smooth-U", "nan"], "smooth-U must be >= 2 and finite"),
        (["sums", "--T", "1000", "--smooth-U", "0"], "smooth-U must be >= 2 and finite"),
        (["sums", "--T", "1000", "--smooth-U", "inf"], "smooth-U must be >= 2 and finite"),
        (["histogram", "--T", "1000", "--range", "nan,1"], "range must be two finite numbers"),
        (["histogram", "--T", "1000", "--range", "1"], "range must be two finite numbers"),
        (["moments", "--T", "1000", "--nmax", "-1"], "nmax and mmax must be >= 0"),
        (["coeffs", "--n-max", "0"], "n-max must be >= 1"),
        (["petersson", "--X", "0"], "X must be >= 1000"),
        (["enumerate", "--N", "0"], "N must be a positive integer"),
        # a conductor with a prime of good reduction (11a's discriminant is -11^5)
        (["coeffs", "--curve", "0,-1,1,-10,-20,12", "--n-max", "4"],
         "conductor N=12 has a prime of good reduction"),
        (["coeffs", "--curve", "0,-1,1,-10,-20,22", "--n-max", "4"],
         "conductor N=22 has a prime of good reduction"),
        (["eisenstein", "--m", "-1", "--T-max", "1e3"], "exponents m=-1, n=0 must be >= 0"),
        (["eisenstein", "--n", "-1", "--T-max", "1e3"], "exponents m=1, n=-1 must be >= 0"),
        (["sums", "--T-grid", ","], "T-grid must hold at least one T"),
    ],
)
def test_bad_run_flags_exit_1(capsys, flags, message):
    code = main(flags)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")


_SYMBOL_FLAGS = {"--curve", "--out", "--T", "--z", "--tol", "--threads", "--format"}
FLAGS = {
    "coeffs": {"--curve", "--out", "--format", "--n-max"},
    "enumerate": {"--curve", "--out", "--T", "--z", "--format", "--N"},
    "symbols": _SYMBOL_FLAGS,
    "sums": _SYMBOL_FLAGS | {"--weight", "--T-grid", "--smooth-U"},
    "moments": _SYMBOL_FLAGS | {"--nmax", "--mmax"},
    "histogram": _SYMBOL_FLAGS | {"--component", "--bins", "--range"},
    "petersson": {"--curve", "--out", "--X"},
    "eisenstein": {"--curve", "--out", "--z", "--tol", "--threads", "--m", "--n", "--s-re",
                   "--s-im", "--T-max"},
    "verify": {"--curve", "--out", "--threads", "--seed", "--quick"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sp in subparsers.choices.items()
    }
    assert got == FLAGS
    assert sum(map(len, got.values())) == 64


# one value per shared flag; every (subcommand, flag) pair outside FLAGS must be refused
_VALUES = {"--T": "1e7", "--z": "0,2", "--tol": "nan", "--threads": "2", "--format": "csv",
           "--seed": "3"}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in FLAGS for f in _VALUES if f not in FLAGS[c]],
)
def test_undeclared_flags_exit_2(capsys, command, flag):
    # e.g. `eisenstein --T 1e7` used to run at --T-max's default of 1e5
    with pytest.raises(SystemExit) as exc:
        main([command, flag, _VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["moments"], ["histogram", "--bins", "2"]])
def test_no_samples_exit_1(capsys, argv):
    # no coset has 1 < N_z(gamma) <= 100: both commands refuse, neither prints rows
    code = main([*argv, "--curve", "11a", "--T", "100"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: no samples with N_z(gamma) > 1 at this T\n"


@pytest.mark.parametrize("T", ["1e9", "0"])
def test_sums_refuses_T_with_a_grid(capsys, T):
    # a grid replaces --T, so the pair is refused rather than one of them dropped
    with pytest.raises(SystemExit) as exc:
        main(["sums", "--T", T, "--T-grid", "1e3"])
    assert exc.value.code == 2
    assert "argument --T-grid: not allowed with argument --T" in capsys.readouterr().err


def test_sums_default_T_only_without_a_grid(capsys):
    code, out = run_cli(capsys, "sums")
    assert code == 0 and [l.split(",")[0] for l in out.splitlines()[1:]] == ["10000.0"]
    code, out = run_cli(capsys, "sums", "--T-grid", "1e3")
    assert code == 0 and [l.split(",")[0] for l in out.splitlines()[1:]] == ["1000.0"]


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_moments_guard_rejects_T_below_1():
    assert main(["moments", "--curve", "11a", "--T", "0.5"]) == 1


def test_sums_first_moment_theory_column(capsys):
    code, out = run_cli(
        capsys, "sums", "--curve", "11a", "--weight", "f:1,0", "--T", "2000", "--tol", "1e-9"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[5]) == pytest.approx(0.0018639532246330695 / (4 * 3.141592653589793), rel=1e-6)


def test_sums_theory_column_at_small_im_z(capsys):
    # H(z) at Im z = 0.001 needs ~5,600 terms at 1e-13, more than the symbols at T = 1 do
    code, out = run_cli(capsys, "sums", "--z", "0,0.001", "--T", "1", "--weight", "f:1,0")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    H = modsym.antiderivative(curve_mod.eta_deep_table_level11(10000), 0.001j, tol=1e-13)
    want = H / (0.001 * cosets.volume(11))
    assert (float(row[5]), float(row[6])) == (want.real, want.imag)


def test_verify_quick_exit_zero_and_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--curve", "11a", "--quick", "--threads", "1")
    assert code1 == 0
    lines = [l for l in out1.strip().split("\n") if l[:4] in ("PASS", "FAIL", "SKIP")]
    assert len(lines) == 13
    assert not any(l.startswith("FAIL") for l in lines)
    code8, out8 = run_cli(capsys, "verify", "--curve", "11a", "--quick", "--threads", "8")
    assert code8 == 0
    assert out8 == out1  # byte-identical verify transcript across thread counts


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = main(["enumerate", "--N", "11", "--T", "122", "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("c,d,norm\n")
    assert text.endswith("\n")


def test_coeffs_streams_its_csv(capsys, traced_peak):
    # rows are formatted as they are written: no list of 2*10^4 lines or row tuples
    peak, code = traced_peak(lambda: main(["coeffs", "--curve", "0,1,1,-2,0,389", "--n-max", "20000"]))
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 20001
    assert peak <= 2.5e6, peak


def test_coeffs_streams_its_json(capsys, traced_peak):
    # records are dumped as they are written: no list of 2*10^4 dicts or one whole string
    peak, code = traced_peak(
        lambda: main(["coeffs", "--curve", "0,1,1,-2,0,389", "--n-max", "20000", "--format", "json"])
    )
    assert code == 0
    recs = json.loads(capsys.readouterr().out)
    assert len(recs) == 20000 and recs[0] == {"n": 1, "a_n": 1}
    assert peak <= 2.5e6, peak


def test_json_rows_empty_table(capsys):
    # the streamed writer still prints json.dumps([]) when no row comes
    _emit_rows(argparse.Namespace(format="json", out=None), ["n", "a_n"], iter(()))
    assert capsys.readouterr().out == "[]\n"


def _list_built_rows(argv):
    """(header, rows) of `symbols` or `enumerate` as one list of every row. Reference only."""
    args = build_parser().parse_args(argv)
    _check_shared(args)
    if args.command == "enumerate":
        rows = [(0, 1, 1.0)]
        N = args.N if args.N is not None else resolve_curve(args.curve).N
        for c, ds, norms in coset_arrays(N, args.T, args.z):
            rows += [(c, d, nrm) for d, nrm in zip(ds.tolist(), norms.tolist())]
        return ["c", "d", "norm"], rows
    crv, table, _ = _symbols_for(args, args.T)
    batch = modsym.symbols_up_to(table, crv.N, args.T, args.z, args.tol, args.threads)
    ds = [d for _, c_ds, _ in coset_arrays(crv.N, args.T, args.z) for d in c_ds.tolist()]
    rows = [(0, 1, 1.0, 0.0, 0.0, 0.0)]
    rows += [
        (c, d, nrm, v.real, v.imag, e)
        for c, d, nrm, v, e in zip(
            batch.cs.tolist(), ds, batch.norms.tolist(),
            batch.values.tolist(), batch.per_symbol(batch.group_err_bounds).tolist(),
            strict=True,
        )
    ]
    return ["c", "d", "norm", "re_symbol", "im_symbol", "err_bound"], rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["symbols", "--T", "9e5"],  # 71,652 symbols: more than one block of rows
        ["symbols", "--curve", "37a", "--z", "0.25,0.9", "--T", "1e5", "--threads", "2"],
        ["enumerate", "--N", "11", "--T", "9e5"],
        ["enumerate", "--curve", "37a", "--z", "0.25,0.9", "--T", "1e5"],
    ],
    ids=["symbols-11a", "symbols-37a-z", "enumerate-11a", "enumerate-37a-z"],
)
def test_streamed_rows_match_the_list_built_output(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    header, rows = _list_built_rows(argv)
    if fmt == "json":
        want = json.dumps([dict(zip(header, row)) for row in rows], sort_keys=True) + "\n"
    else:
        want = "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == want


def test_symbols_enumerates_the_cosets_once(capsys, monkeypatch):
    # each row's d comes from the enumeration its symbol is formed from, and no batch is built
    calls = []

    def counted(*args):
        calls.append(args)
        return coset_arrays(*args)

    monkeypatch.setattr(cosets, "coset_arrays", counted)
    monkeypatch.setattr(modsym, "coset_arrays", counted)
    monkeypatch.setattr(modsym, "symbols_up_to", lambda *a, **k: pytest.fail("built a batch"))
    code, out = run_cli(capsys, "symbols", "--T", "1e4")
    assert code == 0 and len(out.splitlines()) == 1 + cosets.coset_count(11, 10 ** 4) and len(calls) == 1


def test_streaming_commands_keep_block_temporaries_on_the_heap(capsys, monkeypatch):
    # every command that reads symbols first sets glibc's mmap and trim thresholds
    calls = []

    class Mallopt:  # takes argtypes and restype as a ctypes function does
        def __call__(self, param, value):
            calls.append((param, value))

    class Libc:
        mallopt = Mallopt()

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    for command, argv in _BATCH_COMMANDS.items():
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)], command
    calls.clear()
    assert run_cli(capsys, "coeffs", "--n-max", "5")[0] == 0 and calls == []  # reads no symbols
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # not glibc: left alone
    assert run_cli(capsys, *_BATCH_COMMANDS["sums"])[0] == 0 and calls == []


# A stats command holds its table, a few blocks of the symbol stream and their
# temporaries, whatever T is (one block of complex values is 16 * _SUM_CHUNK
# bytes); at T = 1e7 a batch alone would hold 795,910 symbols at 24 bytes each.
STATS_PEAK = 12 * 16 * _SUM_CHUNK


def test_moments_holds_only_what_it_reads(capsys, traced_peak):
    peak, code = traced_peak(lambda: main(["moments", "--T", "1e7"]))
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 26
    assert peak <= STATS_PEAK, peak


def test_histogram_holds_only_what_it_reads(capsys, traced_peak):
    peak, code = traced_peak(lambda: main(["histogram", "--T", "1e7", "--component", "im"]))
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 41
    assert peak <= STATS_PEAK, peak


@pytest.mark.parametrize("flags", [["--weight", "abs2:1"], ["--weight", "f:2,0", "--smooth-U", "10"]],
                         ids=["sharp", "smoothed"])
def test_sums_holds_only_what_it_reads(capsys, traced_peak, flags):
    # the whole grid in one pass: one set of accumulators per T, no batch
    peak, code = traced_peak(lambda: main(["sums", *flags, "--T-grid", "1e5,1e6,1e7"]))
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 4
    assert peak <= STATS_PEAK, peak


def test_python_m_runs_the_cli(capsys):
    # `python -m modsymdist` is the same command line as cli.main
    argv = ["coeffs", "--n-max", "5"]
    code, want = run_cli(capsys, *argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(modsymdist.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    got = subprocess.run([sys.executable, "-m", "modsymdist", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (got.returncode, got.stdout, got.stderr) == (code, want, "") and code == 0


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["coeffs", "--curve", "11a", "--n-max", "20000"],
         "5b6e34b31c0567022d87dad46e7ba6705995361d266a86e0c11123d209089b55"),
        (["coeffs", "--curve", "0,1,1,-2,0,389", "--n-max", "3000", "--format", "json"],
         "e96f3f8f3e89b33a252517b6c1d42d65350071fb219ee6bfe5807b31bc5c2657"),
        (["symbols", "--curve", "11a", "--T", "2000"],
         "43ae1f6eb53107321f5065cbd2fbb814ca5f28694a7c1f7363acd2d66ee938d2"),
        (["symbols", "--curve", "37a", "--T", "1000", "--format", "json"],
         "5e2f54c2754dca29febc25f5718940a4c78084c16f394640a243cc04661258cd"),
    ],
    ids=["coeffs-csv", "coeffs-json", "symbols-csv", "symbols-json"],
)
def test_tabular_output_pinned(tmp_path, capsys, argv, sha256):
    # stdout and --out FILE carry the same bytes, pinned from the list-built writer
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == code == 0
    assert target.read_bytes() == out.encode()
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_readme_quickstart_names_resolve():
    # every M.<name> in the README's library quickstart must exist; nothing is run
    text = README.read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert "import modsymdist as M" in block
    names = sorted(set(re.findall(r"\bM\.([A-Za-z_][\w.]*\w)", block)))
    assert len(names) >= 5
    for name in names:
        obj = modsymdist
        for part in name.split("."):
            assert hasattr(obj, part), f"README quickstart names M.{name}, which does not exist"
            obj = getattr(obj, part)


def test_readme_commands_parse():
    # every `modsymdist ...` line in the README parses with today's flags; nothing is run
    lines = [l.split("#", 1)[0] for l in README.read_text().splitlines()
             if l.startswith("modsymdist ")]
    assert len(lines) >= 12
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
