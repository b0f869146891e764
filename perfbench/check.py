"""Output checks that feed `failed` and `error_rate`.

Every job's output is compared, after the timed region, with the reference
recorded in `reference.json`:

- `coeffs` CSV: byte-exact SHA-256, since the a_n are integers, plus the
  Hasse bound |a_p| <= 2 sqrt(p) on every prime row.
- Float outputs (CSV/JSON of `stats` and `petersson` jobs): integers and
  strings exactly, floats within RTOL of the larger of their own magnitude
  and that of their re/im pair, plus ATOL.  The pair matters because an
  imaginary part that is rounding noise (1e-11 next to a real part of 2e3)
  has no digits of its own to compare.  RTOL is loose enough for a last-bit
  change from a reordered fold (the sums run over ~8e5 terms, so such a
  change moves a result by ~1e-13 relative) and tight enough to catch one
  dropped term (a moment over ~8e5 samples moves by ~1e-6 relative).
  Histogram bins that meet at 0 are compared by their summed count
  (see _merge_zero_edge).
- `verify`: the 13 criterion statuses; detail strings are not compared.

An operation is a CLI job or one `verify` criterion.  It fails on an
exception, a nonzero return code or a failed check; a criterion fails when
its status differs from the reference.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

RTOL = 1e-9
ATOL = 1e-12
TABLE_CHECK_N = 20000  # the 11a point-count table checked against the eta product


@dataclass
class JobResult:
    """What one job left behind: return code, stdout text (or status vector)."""

    job_id: str
    returncode: object  # int, or None when the job raised
    output: str = ""
    error: str = ""
    extra: dict = field(default_factory=dict)
    seconds: float = 0.0


def operations(want):
    """Operations in a job: one per criterion of a `verify` run, else one."""
    return len(want["status"]) if "status" in want else 1


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _primes(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def hasse_problems(coeffs):
    """Problems with a_1 = 1 and |a_p| <= 2 sqrt(p); coeffs maps n -> a_n."""
    problems = [] if coeffs.get(1) == 1 else [f"a_1 = {coeffs.get(1)}, expected 1"]
    for p in _primes(max(coeffs, default=0)):
        a_p = coeffs.get(p)
        if a_p is None or a_p * a_p > 4 * p:
            problems.append(f"a_{p} = {a_p} violates |a_p| <= 2 sqrt(p)")
    return problems


def coeffs_csv_problems(text, ref_sha256):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "n,a_n":
        return [f"bad header {lines[0]!r}"]
    try:
        coeffs = {int(n): int(a) for n, a in (line.split(",") for line in lines[1:])}
    except ValueError as exc:
        return [f"unparsable coefficient row: {exc}"]
    problems = hasse_problems(coeffs)
    if digest(text) != ref_sha256:
        problems.append("coefficient CSV differs from the reference digest")
    return problems


def _is_int(text):
    return text.lstrip("-").isdigit()


def _close(a, b, scale=0.0):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale) + ATOL


def _pair_key(column):
    """'re_value'/'im_value' -> 'value', 'x_re'/'x_im' -> 'x'; other names unchanged."""
    if column[:3] in ("re_", "im_"):
        return column[3:]
    if column[-3:] in ("_re", "_im"):
        return column[:-3]
    return column


def _compare_json(got, want, where="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [p for k in want for p in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        if len(want) == 2 and all(isinstance(v, float) for v in want + got):
            # a [re, im] pair: each part is compared on the pair's magnitude
            scale = max(math.hypot(*want), math.hypot(*got))
            bad = [k for k in range(2) if not _close(got[k], want[k], scale)]
            return [f"{where}: {got!r} vs reference {want!r}"] if bad else []
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_json(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(float(got), want) else [f"{where}: {got!r} vs reference {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_problems(got_rows, ref_rows):
    """Integers and strings exactly; floats on the magnitude of their re/im pair."""
    header = ref_rows[0].split(",")
    keys = [_pair_key(c) for c in header]
    problems = [] if got_rows[0] == ref_rows[0] else [f"header {got_rows[0]!r}"]
    for r, (g, w) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        gc, wc = g.split(","), w.split(",")
        if len(gc) != len(wc):
            problems.append(f"row {r}: {len(gc)} cells, reference has {len(wc)}")
            continue
        scale = dict.fromkeys(keys, 0.0)
        for key, v in zip(keys + keys, gc + wc):
            x = _float(v)
            if x is not None and math.isfinite(x):
                scale[key] = max(scale[key], abs(x))
        for k, (gv, wv) in enumerate(zip(gc, wc)):
            if gv == wv:
                continue
            x, y = _float(gv), _float(wv)
            if x is None or y is None or _is_int(gv) or _is_int(wv) or not _close(x, y, scale[keys[k]]):
                problems.append(f"row {r} {header[k]}: {gv} vs reference {wv}")
    return problems


def _merge_zero_edge(rows):
    """Histogram rows with the two bins that meet at exactly 0.0 merged into one.

    Symbols whose true value is 0 in the histogrammed component (about 30% of
    the 11a imaginary parts) come out as +-1e-17 rounding noise, so the side
    of 0 they land on is not part of the result; their total is.
    """
    cells = [r.split(",") for r in rows]
    for k in range(2, len(cells)):
        if _float(cells[k][0]) == 0.0 and len(cells[k]) == len(cells[k - 1]) == 4:
            lo, _, c1, e1 = cells[k - 1]
            _, hi, c2, e2 = cells[k]
            if not (_is_int(c1) and _is_int(c2)) or _float(e1) is None or _float(e2) is None:
                break
            merged = f"{lo},{hi},{int(c1) + int(c2)},{float(e1) + float(e2)!r}"
            return rows[: k - 1] + [merged] + rows[k + 1 :]
    return rows


def numeric_problems(text, ref_text):
    """Compare a CSV or JSON output with its reference within RTOL/ATOL."""
    if ref_text.lstrip().startswith(("[", "{")):
        try:
            got = json.loads(text)
        except ValueError:
            return ["output is not JSON"]
        return _compare_json(got, json.loads(ref_text))
    got_rows = text.rstrip("\n").split("\n")
    ref_rows = ref_text.rstrip("\n").split("\n")
    if ref_rows[0] == "bin_lo,bin_hi,count,expected":
        got_rows, ref_rows = _merge_zero_edge(got_rows), _merge_zero_edge(ref_rows)
    if len(got_rows) != len(ref_rows):
        return [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    return _csv_problems(got_rows, ref_rows)


def job_failures(result, ref, extra_problems=()):
    """(failed operations, problem strings) for one job against its reference."""
    want = ref[result.job_id]
    ops = operations(want)
    if result.returncode is None:
        return ops, [f"{result.job_id}: raised {result.error}"]
    if result.returncode != 0:
        return ops, [f"{result.job_id}: return code {result.returncode}"]
    if "status" in want:
        got = result.output
        bad = [k for k in range(ops) if got[k:k + 1] != want["status"][k]]
        return len(bad), [
            f"{result.job_id}: criterion {k + 1:02d} is {got[k:k + 1] or '-'}, "
            f"reference {want['status'][k]}"
            for k in bad
        ]
    if "sha256" in want:
        problems = coeffs_csv_problems(result.output, want["sha256"])
    else:
        problems = numeric_problems(result.output, want["text"])
    problems = list(problems) + list(extra_problems)
    return (1 if problems else 0), [f"{result.job_id}: {p}" for p in problems[:5]]


def tally(results, ref, extra=None):
    """(attempted, failed, problems) over job results; extra maps job id -> problems."""
    extra = extra or {}
    attempted = failed = 0
    problems = []
    for result in results:
        attempted += operations(ref[result.job_id])
        n, msgs = job_failures(result, ref, extra.get(result.job_id, ()))
        failed += n
        problems += msgs
    return attempted, failed, problems


def table_11a_problems(program, n_max=TABLE_CHECK_N):
    """The 11a point-count a_n against the eta-product prefix, and the Hasse bound."""
    table = program.curve.coefficient_table("11a", n_max)
    oracle = program.curve.eta_deep_table_level11(n_max)
    diff = [n for n in range(1, n_max + 1) if table.a[n] != oracle.a[n]]
    problems = [f"11a a_{n} = {table.a[n]:g}, eta product gives {oracle.a[n]:g}" for n in diff[:3]]
    coeffs = {n: int(table.a[n]) for n in range(1, n_max + 1)}
    return problems + hasse_problems(coeffs)
