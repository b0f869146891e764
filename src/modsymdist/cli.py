"""Command-line front end: curve -> coefficients -> cosets -> symbols -> statistics.

Subcommands: coeffs, enumerate, symbols, sums, moments, histogram, petersson,
eisenstein, verify.  CSV is the primary artifact ('.' decimal, '\\n' line
endings, mandatory header); single-record outputs are JSON.  Identical
config and seed produce byte-identical output for any --threads value.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import cosets, curve as curve_mod, modsym, petersson, series, stats, verify


@dataclass
class RunConfig:
    """Reproducible run parameters; round-trips losslessly through JSON."""

    curve: str = "11a"
    T: float = 1e4
    T_grid: list = field(default_factory=list)
    z: tuple = (0.0, 1.0)
    tol: float = 1e-10
    threads: int = 1
    fmt: str = "csv"
    seed: int = 11

    def __post_init__(self):
        if self.z[1] <= 0:
            raise ValueError("Im(z) must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        d["z"] = tuple(d["z"])
        return cls(**d)

    @property
    def zc(self):
        return complex(self.z[0], self.z[1])


def _cfg_from_args(args):
    return RunConfig(
        curve=getattr(args, "curve", "11a"),
        T=float(getattr(args, "T", 1e4) or 1e4),
        T_grid=[float(t) for t in getattr(args, "T_grid", "").split(",") if t]
        if getattr(args, "T_grid", None)
        else [],
        z=tuple(float(t) for t in args.z.split(",")) if getattr(args, "z", None) else (0.0, 1.0),
        tol=float(getattr(args, "tol", 1e-10)),
        threads=int(getattr(args, "threads", 1)),
        fmt=getattr(args, "format", "csv"),
        seed=int(getattr(args, "seed", 11)),
    )


def _out(args):
    if getattr(args, "out", None):
        return open(args.out, "w", newline="\n")
    return sys.stdout


def _emit(args, text):
    f = _out(args)
    f.write(text)
    if not text.endswith("\n"):
        f.write("\n")
    if f is not sys.stdout:
        f.close()


def _csv_cell(v):
    return repr(v) if isinstance(v, float) else str(v)


def _emit_rows(args, header, rows):
    """Tabular output: CSV by default, records under --format json."""
    if getattr(args, "format", "csv") == "json":
        recs = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(recs, sort_keys=True))
    else:
        lines = [",".join(header)]
        lines += [",".join(_csv_cell(v) for v in row) for row in rows]
        _emit(args, "\n".join(lines))


def _table_for(cfg, n_max=None):
    crv = curve_mod.resolve_curve(cfg.curve)
    if n_max is None:
        # enough for every c <= sqrt(T_max) at the requested tolerance
        T_max = max([cfg.T] + list(cfg.T_grid))
        cmax = max(crv.N, int(math.isqrt(int(T_max / cfg.z[1] ** 2))) + 1)
        n_max = max(
            2000,
            modsym.tail_terms_needed(1.0 / cmax, 2.0, cfg.tol),
        )
    return crv, curve_mod.coefficient_table(crv, n_max)


def cmd_coeffs(args):
    cfg = _cfg_from_args(args)
    crv = curve_mod.resolve_curve(cfg.curve)
    table = curve_mod.coefficient_table(crv, int(args.n_max))
    rows = [(n, int(table.a[n])) for n in range(1, table.n_max + 1)]
    _emit_rows(args, ["n", "a_n"], rows)
    return 0


def cmd_enumerate(args):
    cfg = _cfg_from_args(args)
    N = int(args.N) if args.N else curve_mod.resolve_curve(cfg.curve).N
    rows = [(cs.c, cs.d, cs.norm) for cs in cosets.enumerate_cosets(N, cfg.T, cfg.zc)]
    _emit_rows(args, ["c", "d", "norm"], rows)
    return 0


def cmd_symbols(args):
    cfg = _cfg_from_args(args)
    crv, table = _table_for(cfg)
    batch = modsym.symbols_up_to(table, crv.N, cfg.T, cfg.zc, cfg.tol, cfg.threads)
    rows = [(0, 1, 1.0, 0.0, 0.0, 0.0)]
    rows += [
        (c, d, nrm, v.real, v.imag, e)
        for c, d, nrm, v, e in zip(
            batch.cs.tolist(), batch.ds.tolist(), batch.norms.tolist(),
            batch.values.tolist(), batch.err_bounds.tolist(),
        )
    ]
    _emit_rows(args, ["c", "d", "norm", "re_symbol", "im_symbol", "err_bound"], rows)
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
            nfsq = petersson.rankin_estimate(table, crv.N, min(table.n_max, 20000)).value
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
    U = float(args.smooth_U) if args.smooth_U else None
    cover = max(grid) * (1 + 1 / U) if U else max(grid)
    cfg_cover = RunConfig(**{**asdict(cfg), "T": cover, "T_grid": []})
    crv, table = _table_for(cfg_cover)
    batch = modsym.symbols_up_to(table, crv.N, cover, cfg.zc, cfg.tol, cfg.threads)
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
    crv, table = _table_for(cfg)
    batch = modsym.symbols_up_to(table, crv.N, cfg.T, cfg.zc, cfg.tol, cfg.threads)
    vol = cosets.volume(crv.N)
    nfsq = petersson.rankin_estimate(table, crv.N, min(table.n_max, 20000)).value
    x, y, _, _ = stats.normalize_arrays(batch.values, batch.norms, nfsq, vol)
    if len(x) == 0:
        print("error: no samples with N_z(gamma) > 1 at this T", file=sys.stderr)
        return 1
    rep = stats.moments_from_arrays(x, y, int(args.nmax), int(args.mmax), T=cfg.T)
    rows = [
        (n, m, rep.pairs[(n, m)], rep.gaussian_limit[(n, m)]) for (n, m) in sorted(rep.pairs)
    ]
    _emit_rows(args, ["n", "m", "empirical", "gaussian_limit"], rows)
    return 0


def cmd_histogram(args):
    cfg = _cfg_from_args(args)
    crv, table = _table_for(cfg)
    batch = modsym.symbols_up_to(table, crv.N, cfg.T, cfg.zc, cfg.tol, cfg.threads)
    vol = cosets.volume(crv.N)
    nfsq = petersson.rankin_estimate(table, crv.N, min(table.n_max, 20000)).value
    x, y, _, _ = stats.normalize_arrays(batch.values, batch.norms, nfsq, vol)
    comp = x if args.component == "re" else y
    lo, hi = (float(t) for t in args.range.split(","))
    rows = stats.histogram(comp, int(args.bins), (lo, hi))
    _emit_rows(args, ["bin_lo", "bin_hi", "count", "expected"], rows)
    return 0


def cmd_petersson(args):
    cfg = _cfg_from_args(args)
    crv = curve_mod.resolve_curve(cfg.curve)
    X = int(args.X)
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
    T_max = float(args.T_max)
    cfg_cover = RunConfig(**{**asdict(cfg), "T": T_max, "T_grid": []})
    crv, table = _table_for(cfg_cover)
    batch = modsym.symbols_up_to(table, crv.N, T_max, cfg.zc, cfg.tol, cfg.threads)
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
