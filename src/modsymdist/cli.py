"""Command-line front end: curve -> coefficients -> cosets -> symbols -> statistics.

Subcommands: coeffs, enumerate, symbols, sums, moments, histogram, petersson,
eisenstein, verify.  CSV is the primary artifact ('.' decimal, '\\n' line
endings, mandatory header); single-record outputs are JSON.  Identical
config and seed produce byte-identical output for any --threads value.
"""

import argparse
import cmath
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import cosets, curve as curve_mod, modsym, petersson, series, stats, verify


@dataclass
class RunConfig:
    """Reproducible run parameters, validated on construction."""

    curve: str = "11a"
    T: float = 1e4
    T_grid: list = field(default_factory=list)
    z: tuple = (0.0, 1.0)
    tol: float = 1e-10
    threads: int = 1
    seed: int = 11

    def __post_init__(self):
        # every bound is written so that NaN fails it
        if len(self.z) != 2 or not all(math.isfinite(t) for t in self.z):
            raise ValueError("z must be two finite numbers 'x,y'")
        if not (self.z[1] > 0):
            raise ValueError("Im(z) must be positive")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not all(t >= 1 for t in (self.T, *self.T_grid)):
            raise ValueError("T must be >= 1")
        if not all(math.isfinite(t) for t in (self.T, *self.T_grid)):
            raise ValueError("T must be finite")

    @property
    def zc(self):
        return complex(self.z[0], self.z[1])


def _cfg_from_args(args):
    """RunConfig from the flags of common(); only --T and --T-grid are per subcommand."""
    grid = getattr(args, "T_grid", None)
    return RunConfig(
        curve=args.curve,
        T=getattr(args, "T", 1e4),
        T_grid=[float(t) for t in grid.split(",") if t] if grid else [],
        z=tuple(float(t) for t in args.z.split(",")),
        tol=args.tol,
        threads=args.threads,
        seed=args.seed,
    )


@contextlib.contextmanager
def _out(args):
    """The --out file, closed on exit even if writing fails, or stdout."""
    if not getattr(args, "out", None):
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
    if getattr(args, "format", "csv") == "json":
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
    """Reject a flag outside RunConfig; callers write each bound so that NaN fails it."""
    if not ok:
        raise ValueError(message)


def _batch_for(cfg, T):
    """(curve, table, batch) for every coset with N_z(gamma) <= T at cfg's z and tol."""
    crv = curve_mod.resolve_curve(cfg.curve)
    # enough terms for every c <= sqrt(T) / Im z at the requested tolerance: every certified
    # tail constant is at most 1.1 sqrt(3) < 2 (see CoefficientTable), and a bad --curve whose
    # table falls short makes _terms_for_c raise, so the CLI exits 1
    cmax = max(crv.N, int(math.isqrt(int(T / cfg.z[1] ** 2))) + 1)
    n_max = max(2000, modsym.tail_terms_needed(1.0 / cmax, 2.0, cfg.tol))
    table = curve_mod.coefficient_table(crv, n_max)
    return crv, table, modsym.symbols_up_to(table, crv.N, T, cfg.zc, cfg.tol, cfg.threads)


def _norm_f_sq(crv, table):
    """Rankin-Selberg estimate of ||f||^2 from the first 20000 terms of the table."""
    return petersson.rankin_estimate(table, crv.N, min(table.n_max, 20000)).value


def _normalized(cfg):
    """Normalized symbols (x, y) of every coset with 1 < N_z(gamma) <= cfg.T; never empty."""
    crv, table, batch = _batch_for(cfg, cfg.T)
    values, norms = batch.values, batch.norms
    del batch  # the rest of the batch goes before the normalized arrays are allocated
    x, y, _ = stats.normalize_arrays(values, norms, _norm_f_sq(crv, table), cosets.volume(crv.N))
    _require(len(x) > 0, "no samples with N_z(gamma) > 1 at this T")
    return x, y


def cmd_coeffs(args):
    cfg = _cfg_from_args(args)
    crv = curve_mod.resolve_curve(cfg.curve)
    _require(args.n_max >= 1, "n-max must be >= 1")
    table = curve_mod.coefficient_table(crv, int(args.n_max))
    rows = zip(range(1, table.n_max + 1), table.a[1:].astype(np.int64).tolist())
    _emit_rows(args, ["n", "a_n"], rows)
    return 0


def cmd_enumerate(args):
    cfg = _cfg_from_args(args)
    N = int(args.N) if args.N is not None else curve_mod.resolve_curve(cfg.curve).N
    _require(N >= 1, "N must be a positive integer")

    def rows():
        yield 0, 1, 1.0  # the identity coset
        for c, ds, norms in cosets.coset_arrays(N, cfg.T, cfg.zc):
            yield from zip(itertools.repeat(c), ds.tolist(), norms.tolist())

    _emit_rows(args, ["c", "d", "norm"], rows())
    return 0


def cmd_symbols(args):
    cfg = _cfg_from_args(args)
    crv, _, batch = _batch_for(cfg, cfg.T)

    def rows():  # one c at a time: d and norms from the enumeration the batch follows
        yield 0, 1, 1.0, 0.0, 0.0, 0.0  # the identity coset
        groups = cosets.coset_arrays(crv.N, cfg.T, cfg.zc)
        values = np.split(batch.values, np.cumsum(batch.group_counts)[:-1])
        for (c, ds, norms), v, err in zip(groups, values, batch.group_err_bounds.tolist()):
            yield from zip(
                itertools.repeat(c), ds.tolist(), norms.tolist(),
                v.real.tolist(), v.imag.tolist(), itertools.repeat(err),
            )

    _emit_rows(args, ["c", "d", "norm", "re_symbol", "im_symbol", "err_bound"], rows())
    return 0


def _theory_constant(weight, cfg, crv, table):
    vol = cosets.volume(crv.N)
    y = cfg.z[1]
    try:
        nfsq = None
        hval = None
        if weight.kind in ("alphabeta", "abs2m") or (
            weight.kind == "f_power" and weight.m == weight.n
        ):
            nfsq = _norm_f_sq(crv, table)
        if weight.kind == "f_power" and weight.m != weight.n:
            hval = modsym.antiderivative(table, cfg.zc, tol=1e-13)
        const = series.asymptotic_constants(weight, vol, y, norm_f_sq=nfsq, h_value=hval)
        return const
    except ValueError:
        return None


def cmd_sums(args):
    cfg = _cfg_from_args(args)
    weight = series.WeightSpec.parse(args.weight)
    grid = cfg.T_grid or [cfg.T]
    U = float(args.smooth_U) if args.smooth_U is not None else None
    _require(U is None or 2 <= U < math.inf, "smooth-U must be >= 2 and finite")
    crv, table, batch = _batch_for(cfg, max(grid) * (1 + 1 / U) if U else max(grid))
    const = _theory_constant(weight, cfg, crv, table)
    rows = []
    for T in grid:
        if U:
            rep = series.smoothed_sum(batch, weight, T, U)
        else:
            rep = series.sharp_sum(batch, weight, T)
        rows.append(
            (T, rep.count, rep.value.real, rep.value.imag, rep.mode,
             const.leading.real if const else math.nan,
             const.leading.imag if const else math.nan)
        )
    _emit_rows(
        args,
        ["T", "count", "re_value", "im_value", "mode", "theory_leading_re", "theory_leading_im"],
        rows,
    )
    return 0


def cmd_moments(args):
    cfg = _cfg_from_args(args)
    _require(args.nmax >= 0 and args.mmax >= 0, "nmax and mmax must be >= 0")
    x, y = _normalized(cfg)
    rep = stats.moments_from_arrays(x, y, int(args.nmax), int(args.mmax), T=cfg.T)
    rows = [
        (n, m, rep.pairs[(n, m)], rep.gaussian_limit[(n, m)]) for (n, m) in sorted(rep.pairs)
    ]
    _emit_rows(args, ["n", "m", "empirical", "gaussian_limit"], rows)
    return 0


def cmd_histogram(args):
    cfg = _cfg_from_args(args)
    bounds = tuple(float(t) for t in args.range.split(","))
    _require(
        len(bounds) == 2 and all(map(math.isfinite, bounds)) and bounds[0] < bounds[1],
        "range must be two finite numbers 'lo,hi' with lo < hi",
    )
    x, y = _normalized(cfg)
    comp = x if args.component == "re" else y
    rows = stats.histogram(comp, int(args.bins), bounds)
    _emit_rows(args, ["bin_lo", "bin_hi", "count", "expected"], rows)
    return 0


def cmd_petersson(args):
    cfg = _cfg_from_args(args)
    crv = curve_mod.resolve_curve(cfg.curve)
    X = int(args.X)
    _require(X >= petersson.RANKIN_MIN_X, f"X must be >= {petersson.RANKIN_MIN_X}")
    table = curve_mod.coefficient_table(crv, X)
    out = []
    est = petersson.rankin_estimate(table, crv.N, X)
    out.append({"method": est.method, "value": est.value, "spread": est.spread})
    degree = curve_mod.PRESET_DEGREES.get(cfg.curve)
    if degree is not None:
        lat = curve_mod.agm_periods(crv)
        est2 = petersson.lattice_norm(lat, degree)
        out.append({"method": est2.method, "value": est2.value, "spread": est2.spread})
    _emit(args, json.dumps(out, sort_keys=True))
    return 0


def cmd_eisenstein(args):
    cfg = _cfg_from_args(args)
    s = complex(float(args.s_re), float(args.s_im))
    _require(cmath.isfinite(s), "s must be finite")
    T_max = float(args.T_max)
    _require(1 <= T_max < math.inf, "T-max must be >= 1 and finite")
    _, _, batch = _batch_for(cfg, T_max)
    rep = series.eisenstein_twisted(batch, s, int(args.m), int(args.n), T_max)
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
    cfg = _cfg_from_args(args)
    results = verify.run_acceptance(
        curve=cfg.curve, quick=args.quick, threads=cfg.threads, seed=cfg.seed
    )
    _emit(args, verify.format_results(results))
    return 0 if all(r.passed or r.skipped for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="modsymdist",
        description="Modular-symbol sums, twisted Eisenstein series, and distribution checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, T_default=None):
        sp.add_argument("--curve", default="11a", help="preset (11a, 37a) or 'a1,a2,a3,a4,a6,N'")
        if T_default is not None:
            sp.add_argument("--T", type=float, default=T_default, help="norm bound")
        sp.add_argument("--z", default="0,1", help="working point 'x,y' with y>0")
        sp.add_argument("--tol", type=float, default=1e-10, help="per-symbol truncation tolerance")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, default=11)
        sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("coeffs", help="Fourier coefficients a_n as CSV")
    common(sp)
    sp.add_argument("--n-max", dest="n_max", type=int, default=100)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("enumerate", help="cosets with N_z <= T as CSV")
    common(sp, T_default=122.0)
    sp.add_argument("--N", type=int, help="level (defaults to the curve's conductor)")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("symbols", help="modular symbols over all cosets as CSV")
    common(sp, T_default=1e4)
    sp.set_defaults(fn=cmd_symbols)

    sp = sub.add_parser("sums", help="sharp/smoothed summatory functions as CSV")
    common(sp, T_default=1e4)
    sp.add_argument("--weight", default="one", help="one | f:m,n | ab:j,k | abs2:m")
    sp.add_argument("--T-grid", dest="T_grid", help="comma list of T values")
    sp.add_argument("--smooth-U", dest="smooth_U", help="smoothing parameter U (sharp if absent)")
    sp.set_defaults(fn=cmd_sums)

    sp = sub.add_parser("moments", help="empirical moments vs Gaussian limits as CSV")
    common(sp, T_default=1e6)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--mmax", type=int, default=4)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("histogram", help="histogram of a normalized component as CSV")
    common(sp, T_default=1e6)
    sp.add_argument("--component", choices=("re", "im"), default="re")
    sp.add_argument("--bins", type=int, default=40)
    sp.add_argument("--range", default="-4,4")
    sp.set_defaults(fn=cmd_histogram)

    sp = sub.add_parser("petersson", help="Petersson norm estimates as JSON")
    common(sp)
    sp.add_argument("--X", type=int, default=20000)
    sp.set_defaults(fn=cmd_petersson)

    sp = sub.add_parser("eisenstein", help="twisted Eisenstein partial sum as JSON")
    common(sp, T_default=1e5)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--s-re", dest="s_re", type=float, default=2.0)
    sp.add_argument("--s-im", dest="s_im", type=float, default=0.0)
    sp.add_argument("--T-max", dest="T_max", type=float, default=1e5)
    sp.set_defaults(fn=cmd_eisenstein)

    sp = sub.add_parser("verify", help="run the acceptance suite (PASS/FAIL per criterion)")
    common(sp)
    sp.add_argument("--quick", action="store_true", help="reduced-T smoke profile")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
