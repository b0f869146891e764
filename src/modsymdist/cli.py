"""Command-line front end: curve -> coefficients -> cosets -> symbols -> statistics.

Subcommands: coeffs, enumerate, symbols, sums, moments, histogram, petersson,
eisenstein, verify.  Each takes only the flags it reads; any other flag is a
usage error.  CSV is the primary artifact ('.' decimal, '\\n' line endings,
mandatory header); single-record outputs are JSON.  Identical flags produce
byte-identical output for any --threads value.  Every command that reads
symbols streams them (modsym.symbol_stream): `symbols` writes each c's rows
as it is formed, and the statistics read the stream block by block, so no
command holds a symbol batch; `sums` covers its whole --T-grid in one pass.
"""

import argparse
import cmath
import contextlib
import ctypes
import itertools
import json
import math
import sys

import numpy as np

from . import cosets, curve as curve_mod, modsym, petersson, series, stats, verify


@contextlib.contextmanager
def _out(args):
    """The --out file, closed on exit even if writing fails, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    f = open(args.out, "w", newline="\n")
    try:
        yield f
    finally:
        f.close()


def _emit(args, text):
    with _out(args) as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _csv_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


def _emit_rows(args, header, rows):
    """Tabular output: CSV by default, records under --format json.

    `rows` may be any iterable; CSV lines and JSON records are written as
    each row is formatted, so no list of lines or records is held.  The JSON
    bytes are those of json.dumps on the whole list: "[", the records joined
    by ", ", "]".
    """
    if args.format == "json":
        with _out(args) as f:
            f.write("[")
            for i, row in enumerate(rows):
                f.write((", " if i else "") + json.dumps(dict(zip(header, row)), sort_keys=True))
            f.write("]\n")
        return
    with _out(args) as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def _require(ok, message):
    """Reject a flag value; callers write each bound so that NaN fails it."""
    if not ok:
        raise ValueError(message)


def _check_shared(args):
    """Check the shared flags the subcommand declares, in the order z, tol, threads, T.

    --z becomes a complex number here.  Every bound is written so that NaN fails it.
    """
    if hasattr(args, "z"):
        z = [float(t) for t in args.z.split(",")]
        _require(len(z) == 2 and all(map(math.isfinite, z)), "z must be two finite numbers 'x,y'")
        _require(z[1] > 0, "Im(z) must be positive")
        args.z = complex(*z)
    if hasattr(args, "tol"):
        _require(args.tol > 0 and math.isfinite(args.tol), "tol must be positive and finite")
    if hasattr(args, "threads"):
        _require(args.threads >= 1, "threads must be >= 1")
    if hasattr(args, "T"):
        _require(args.T >= 1, "T must be >= 1")
        _require(math.isfinite(args.T), "T must be finite")


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_block_temporaries():
    """Serve the stream's block temporaries from a heap that stays resident (glibc; else a no-op).

    A reduction over a symbol stream makes and drops temporaries of up to
    one block (256 KiB of complex values) for every block it reads.  Under
    glibc's default thresholds, which only rise when a larger array is
    freed, each of them is a fresh mmap or lands on heap that is trimmed
    right after, so its pages are faulted in again every block: in one
    process, a pass of perfbench's six `stats` jobs took 22,000-28,000
    minor faults without this call against at most 95 with it, and ~5%
    more time (medians of 12 passes, within this machine's spread).  A run
    that held a batch never paid this, since freeing the batch raised the
    thresholds.
    Arrays below 4 MiB now come from the heap, and up to 8 MiB of free
    heap is kept.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def _symbols_for(args, T):
    """(curve, table, SymbolStream) of every coset with N_z(gamma) <= T at the flags' z and tol."""
    _keep_block_temporaries()
    crv = curve_mod.resolve_curve(args.curve)
    # enough terms for every c <= sqrt(T) / Im z at the requested tolerance, and for
    # _theory_constant's H(z) at 1e-13: every certified tail constant is at most
    # 1.1 sqrt(3) < 2 (see CoefficientTable), and a bad --curve whose table falls short
    # makes _terms_for_c raise, so the CLI exits 1
    cmax = max(crv.N, int(math.isqrt(int(T / args.z.imag ** 2))) + 1)
    n_max = max(2000, modsym.tail_terms_needed(1.0 / cmax, 2.0, args.tol),
                modsym.tail_terms_needed(args.z.imag, 2.0, 1e-13, two_sided=False))
    # the same bytes as coefficient_table, by a cheaper route: the eta product on 11a's
    # exact model, else baby-step/giant-step lanes for every good p >= 5 and the count
    # for the rest; `coeffs` and `petersson` keep the count
    table = curve_mod._symbol_table(crv, n_max)
    return crv, table, modsym.symbol_stream(table, crv.N, T, args.z, args.tol, args.threads)


def _norm_f_sq(crv, table):
    """Rankin-Selberg estimate of ||f||^2 from the first 20000 terms of the table."""
    return petersson.rankin_estimate(table, crv.N, min(table.n_max, 20000)).value


def cmd_coeffs(args):
    crv = curve_mod.resolve_curve(args.curve)
    _require(args.n_max >= 1, "n-max must be >= 1")
    table = curve_mod.coefficient_table(crv, int(args.n_max))
    rows = zip(range(1, table.n_max + 1), table.a[1:].astype(np.int64).tolist())
    _emit_rows(args, ["n", "a_n"], rows)
    return 0


def cmd_enumerate(args):
    N = int(args.N) if args.N is not None else curve_mod.resolve_curve(args.curve).N
    _require(N >= 1, "N must be a positive integer")

    def rows():
        yield 0, 1, 1.0  # the identity coset
        for c, ds, norms in cosets.coset_arrays(N, args.T, args.z):
            yield from zip(itertools.repeat(c), ds.tolist(), norms.tolist())

    _emit_rows(args, ["c", "d", "norm"], rows())
    return 0


def cmd_symbols(args):
    _, _, symbols = _symbols_for(args, args.T)

    def rows():  # one c at a time, as the stream forms it
        yield 0, 1, 1.0, 0.0, 0.0, 0.0  # the identity coset
        for c, ds, norms, v, err in symbols.groups():
            yield from zip(
                itertools.repeat(c), ds.tolist(), norms.tolist(),
                v.real.tolist(), v.imag.tolist(), itertools.repeat(err),
            )

    _emit_rows(args, ["c", "d", "norm", "re_symbol", "im_symbol", "err_bound"], rows())
    return 0


def _theory_constant(weight, z, crv, table):
    """The weight's closed-form leading constant at z, or None where it has none."""
    nfsq = None
    hval = None
    if weight.kind in ("alphabeta", "abs2m") or (weight.kind == "f_power" and weight.m == weight.n):
        nfsq = _norm_f_sq(crv, table)
    if weight.kind == "f_power" and weight.m != weight.n:
        hval = modsym.antiderivative(table, z, tol=1e-13)  # _symbols_for sized the table for it
    try:
        return series.asymptotic_constants(
            weight, cosets.volume(crv.N), z.imag, norm_f_sq=nfsq, h_value=hval
        )
    except ValueError:  # no closed form for this weight
        return None


def cmd_sums(args):
    grid = [args.T] if args.T_grid is None else [float(t) for t in args.T_grid.split(",") if t]
    _require(grid, "T-grid must hold at least one T")
    _require(all(t >= 1 for t in grid), "T must be >= 1")
    _require(all(map(math.isfinite, grid)), "T must be finite")
    weight = series.WeightSpec.parse(args.weight)
    U = float(args.smooth_U) if args.smooth_U is not None else None
    _require(U is None or 2 <= U < math.inf, "smooth-U must be >= 2 and finite")
    crv, table, symbols = _symbols_for(args, max(grid) * (1 + 1 / U) if U else max(grid))
    const = _theory_constant(weight, args.z, crv, table)
    rows = [
        (T, rep.count, rep.value.real, rep.value.imag, rep.mode,
         const.leading.real if const else math.nan,
         const.leading.imag if const else math.nan)
        for T, rep in zip(grid, series.grid_sums(symbols, weight, grid, U))
    ]
    _emit_rows(
        args,
        ["T", "count", "re_value", "im_value", "mode", "theory_leading_re", "theory_leading_im"],
        rows,
    )
    return 0


def cmd_moments(args):
    _require(args.nmax >= 0 and args.mmax >= 0, "nmax and mmax must be >= 0")
    crv, table, symbols = _symbols_for(args, args.T)
    rep = stats.symbol_moments(symbols, _norm_f_sq(crv, table), cosets.volume(crv.N),
                               int(args.nmax), int(args.mmax))
    rows = [
        (n, m, rep.pairs[(n, m)], rep.gaussian_limit[(n, m)]) for (n, m) in sorted(rep.pairs)
    ]
    _emit_rows(args, ["n", "m", "empirical", "gaussian_limit"], rows)
    return 0


def cmd_histogram(args):
    bounds = tuple(float(t) for t in args.range.split(","))
    _require(
        len(bounds) == 2 and all(map(math.isfinite, bounds)) and bounds[0] < bounds[1],
        "range must be two finite numbers 'lo,hi' with lo < hi",
    )
    crv, table, symbols = _symbols_for(args, args.T)
    rows = stats.symbol_histogram(symbols, _norm_f_sq(crv, table), cosets.volume(crv.N),
                                  args.component, int(args.bins), bounds)
    _emit_rows(args, ["bin_lo", "bin_hi", "count", "expected"], rows)
    return 0


def cmd_petersson(args):
    crv = curve_mod.resolve_curve(args.curve)
    X = int(args.X)
    _require(X >= petersson.RANKIN_MIN_X, f"X must be >= {petersson.RANKIN_MIN_X}")
    table = curve_mod.coefficient_table(crv, X)
    out = []
    est = petersson.rankin_estimate(table, crv.N, X)
    out.append({"method": est.method, "value": est.value, "spread": est.spread})
    degree = curve_mod.PRESET_DEGREES.get(crv)
    if degree is not None:
        lat = curve_mod.agm_periods(crv)
        est2 = petersson.lattice_norm(lat, degree)
        out.append({"method": est2.method, "value": est2.value, "spread": est2.spread})
    _emit(args, json.dumps(out, sort_keys=True))
    return 0


def cmd_eisenstein(args):
    s = complex(float(args.s_re), float(args.s_im))
    _require(cmath.isfinite(s), "s must be finite")
    T_max = float(args.T_max)
    _require(1 <= T_max < math.inf, "T-max must be >= 1 and finite")
    _, _, symbols = _symbols_for(args, T_max)
    rep = series.eisenstein_twisted(symbols, s, int(args.m), int(args.n), T_max)
    _emit(
        args,
        json.dumps(
            {
                "m": rep.m,
                "n": rep.n,
                "s": [s.real, s.imag],
                "T_max": rep.T_max,
                "count": rep.count,
                "value": [rep.value.real, rep.value.imag],
                "tail_estimate": rep.tail_estimate,
            },
            sort_keys=True,
        ),
    )
    return 0


def cmd_verify(args):
    results = verify.run_acceptance(
        curve=args.curve, quick=args.quick, threads=args.threads, seed=args.seed
    )
    _emit(args, verify.format_results(results))
    return 0 if all(r.passed or r.skipped for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="modsymdist",
        description="Modular-symbol sums, twisted Eisenstein series, and distribution checks",
    )
    sub = p.add_subparsers(dest="command", required=True)
    shared = {
        "z": dict(default="0,1", help="working point 'x,y' with y>0"),
        "tol": dict(type=float, default=1e-10, help="per-symbol truncation tolerance"),
        "threads": dict(type=int, default=1, help="worker threads for the per-c symbol work; "
                        "stdout is identical for any value"),
        "format": dict(choices=("csv", "json"), default="csv"),
    }

    def command(name, fn, help, *flags, T=None):
        # no abbreviations: `eisenstein --T` must not pass for `--T-max`
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(fn=fn)
        sp.add_argument("--curve", default="11a", help="preset (11a, 37a) or 'a1,a2,a3,a4,a6,N'")
        if T is not None:
            sp.add_argument("--T", type=float, default=T, help="norm bound")
        for flag in flags:
            sp.add_argument(f"--{flag}", **shared[flag])
        sp.add_argument("--out", help="output file (default stdout)")
        return sp

    sym = ("z", "tol", "threads", "format")  # every command that builds symbols

    sp = command("coeffs", cmd_coeffs, "Fourier coefficients a_n as CSV", "format")
    sp.add_argument("--n-max", dest="n_max", type=int, default=100)

    sp = command("enumerate", cmd_enumerate, "cosets with N_z <= T as CSV", "z", "format", T=122.0)
    sp.add_argument("--N", type=int, help="level (defaults to the curve's conductor)")

    command("symbols", cmd_symbols, "modular symbols over all cosets as CSV", *sym, T=1e4)

    sp = command("sums", cmd_sums, "sharp/smoothed summatory functions as CSV", *sym)
    T_or_grid = sp.add_mutually_exclusive_group()  # a grid replaces --T; both is a usage error
    T_or_grid.add_argument("--T", type=float, default=1e4, help="norm bound")
    T_or_grid.add_argument("--T-grid", dest="T_grid", help="comma list of T values")
    sp.add_argument("--weight", default="one", help="one | f:m,n | ab:j,k | abs2:m")
    sp.add_argument("--smooth-U", dest="smooth_U", help="smoothing parameter U (sharp if absent)")

    sp = command("moments", cmd_moments, "empirical moments vs Gaussian limits as CSV", *sym, T=1e6)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--mmax", type=int, default=4)

    sp = command("histogram", cmd_histogram, "histogram of a normalized component as CSV", *sym,
                 T=1e6)
    sp.add_argument("--component", choices=("re", "im"), default="re")
    sp.add_argument("--bins", type=int, default=40)
    sp.add_argument("--range", default="-4,4")

    sp = command("petersson", cmd_petersson, "Petersson norm estimates as JSON")
    sp.add_argument("--X", type=int, default=20000)

    sp = command("eisenstein", cmd_eisenstein, "twisted Eisenstein partial sum as JSON",
                 "z", "tol", "threads")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--s-re", dest="s_re", type=float, default=2.0)
    sp.add_argument("--s-im", dest="s_im", type=float, default=0.0)
    sp.add_argument("--T-max", dest="T_max", type=float, default=1e5)

    sp = command("verify", cmd_verify, "run the acceptance suite (PASS/FAIL per criterion)",
                 "threads")
    sp.add_argument("--seed", type=int, default=11)
    sp.add_argument("--quick", action="store_true", help="reduced-T smoke profile")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_shared(args)
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
