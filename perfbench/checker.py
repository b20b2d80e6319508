"""Independent output checker for `pelab` ops.

The expected values are recomputed here from the op's argv in exact
`Fraction` arithmetic, from the closed forms alone, without importing
pelab:

    alpha            = (c|Lambda|/2) r1 + (lam - c|Lambda|) / (2 r1)     (r1 > 1)
    alpha at r1 = 1  = lam / 2                                            (continuation)
    beta_sq_derived  = alpha (r1^2 - 1) / 2
    berger_coeff     = c|Lambda| / (2n + 1)
    z_scale          = c (r1^2 - 1)
    limit            rho1_sq_derived = 2/(2n+1), theta_identity_exact true
    audit            9 rows
    verify           exit 0, PASS, the requested point count

`check` returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

from .workloads import parse_flags

AUDIT_ROWS = 9
LIMIT_GRID = 25  # rows per t of the default rho grid
SWEEP_VERIFY_TOL = 1e-6


def catalogue(args: dict, k=None) -> tuple:
    """(n, lam, c, |Lambda|) of the degree -k bundle over CP^n; k defaults to --k."""
    n = int(args.get("--n", 1))
    k = int(args["--k"] if k is None else k)
    return n, Fraction(2 * n + 2, k), Fraction(1, k), Fraction(2 * n + 1)


def closed_forms(n: int, lam: Fraction, c: Fraction, abs_lambda: Fraction, r1: Fraction) -> dict:
    """Expected printed fields of one family member; alpha is the continuation at r1 = 1."""
    cl = c * abs_lambda
    out = {"berger_coeff": cl / (2 * n + 1), "z_scale": c * (r1 * r1 - 1)}
    if r1 == 1:
        out["alpha"] = lam / 2
        out["beta_sq_derived"] = None
    else:
        alpha = cl / 2 * r1 + (lam - cl) / (2 * r1)
        out["alpha"] = alpha
        out["beta_sq_derived"] = alpha * (r1 * r1 - 1) / 2
    return out


def _compare(problems: list, where: str, expected: dict, printed: dict):
    for key, want in expected.items():
        got = printed.get(key)
        if want is None:
            if got not in (None, ""):
                problems.append(f"{where}: {key} printed {got!r}, expected empty")
            continue
        try:
            ok = got is not None and Fraction(got) == want
        except (ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            problems.append(f"{where}: {key} printed {got!r}, expected {want}")


_FAMILY_TEXT = {
    "alpha": re.compile(r"^  alpha = (\S+) \(cone angle", re.M),
    "alpha_continuation": re.compile(r"^  alpha continuation \(lam/2\) = (\S+)$", re.M),
    "beta_sq_derived": re.compile(r"^  beta_sq derived = (\S+)$", re.M),
    "berger_coeff": re.compile(r"^berger_coeff = (\S+)$", re.M),
    "z_scale": re.compile(r"^z_scale = (\S+)$", re.M),
}


def _check_family(args: dict, out: str, problems: list):
    r1 = Fraction(args["--r1"])
    expected = closed_forms(*catalogue(args), r1)
    if args.get("--format") == "json":
        doc = json.loads(out)
        printed = {key: doc.get(key) for key in ("alpha", "beta_sq_derived", "berger_coeff", "z_scale")}
        if r1 == 1:
            printed["alpha"] = doc["conic"]["alpha_continuation"]
        positivity = doc.get("positivity") == "pass"
    else:
        printed = {}
        for key, pattern in _FAMILY_TEXT.items():
            m = pattern.search(out)
            printed[key] = m.group(1) if m else None
        if r1 == 1:
            if printed["alpha"] is not None:
                problems.append("family: conic case printed an edge alpha")
            printed["alpha"] = printed["alpha_continuation"]
        del printed["alpha_continuation"]
        positivity = "positivity: PASS" in out.splitlines()
    if not positivity:
        problems.append("family: positivity not reported as passing")
    _compare(problems, "family", expected, printed)


def _check_sweep(args: dict, out: str, problems: list):
    start, stop, count = Fraction(args["--start"]), Fraction(args["--stop"]), int(args["--count"])
    verify = "--verify" in args
    rows = list(csv.reader(io.StringIO(out)))
    header = ["r1", "c", "alpha", "beta_sq_derived", "berger_coeff", "z_scale"] + (["max_einstein_residual"] if verify else [])
    if not rows or rows[0] != header:
        problems.append(f"sweep: header {rows[:1]!r}")
        return
    body = rows[1:]
    if len(body) != count:
        problems.append(f"sweep: {len(body)} rows, expected {count}")
        return
    step = (stop - start) / (count - 1)
    for i, row in enumerate(body):
        if args["--param"] == "k":
            k = int(start) + i
            n, lam, c, abs_lambda = catalogue(args, k=k)
            r1 = Fraction(args["--r1"])
        else:
            n, lam, c, abs_lambda = catalogue(args)
            r1 = start + i * step
        expected = {"r1": r1, "c": c, **closed_forms(n, lam, c, abs_lambda, r1)}
        _compare(problems, f"sweep row {i}", expected, dict(zip(header, row)))
        if verify:
            try:
                residual = float(row[-1])
            except ValueError:
                residual = math.nan
            if not residual <= SWEEP_VERIFY_TOL:
                problems.append(f"sweep row {i}: einstein residual {row[-1]!r} above {SWEEP_VERIFY_TOL}")


def _check_audit(args: dict, out: str, problems: list):
    if args.get("--format") == "json":
        count = len(json.loads(out))
    else:
        lines = out.splitlines()[2:]
        count = sum(1 for line in lines if line and not line.startswith("    at "))
        if count != sum(1 for line in lines if line.startswith("    at ")):
            problems.append("audit: row and tuple lines do not pair up")
    if count != AUDIT_ROWS:
        problems.append(f"audit: {count} rows, expected {AUDIT_ROWS}")


def _check_limit(args: dict, out: str, problems: list):
    """JSON carries the summary; CSV (the default) only the deviation rows."""
    n = int(args.get("--n", 1))
    if args.get("--format") == "json":
        doc = json.loads(out)
        rows = doc["rows"]
        summary = doc["summary"]
        if Fraction(summary["rho1_sq_derived"]) != Fraction(2, 2 * n + 1):
            problems.append(f"limit: rho1_sq_derived {summary['rho1_sq_derived']}, expected {Fraction(2, 2 * n + 1)}")
        if summary["theta_identity_exact"] is not True:
            problems.append("limit: theta_identity_exact is not true")
    else:
        rows = list(csv.reader(io.StringIO(out)))[1:]
    t_count = len([t for t in args.get("--t-list", "0.1,0.01,0.001").split(",") if t])
    if len(rows) != t_count * LIMIT_GRID:
        problems.append(f"limit: {len(rows)} rows, expected {t_count * LIMIT_GRID}")


def _check_verify(args: dict, out: str, problems: list):
    points = int(args.get("--points", 20))
    if args.get("--format") == "json":
        doc = json.loads(out)
        label, passed, reported = doc["chart"], doc["pass"] is True, doc["points"]
    else:
        lines = out.splitlines()
        label = lines[0].removeprefix("chart: ") if lines else ""
        passed = bool(lines) and lines[-1] == "PASS"
        m = re.search(r"^points: (\d+) ", out, re.M)
        reported = int(m.group(1)) if m else None
    if not passed:
        problems.append("verify: did not print PASS")
    if reported != points:
        problems.append(f"verify: reported {reported} points, expected {points}")
    if args.get("--chart") == "rescaled":
        rho1 = args.get("--rho1", "derived")
        want = {"derived": Fraction(2, 3), "paper": Fraction(4, 3)}.get(rho1)
        if want is not None and label != f"rescaled rho1^2={want}":
            problems.append(f"verify: chart {label!r}, expected rho1^2={want}")
    elif label != f"page-pope n=1 r1={Fraction(args['--r1'])}":
        problems.append(f"verify: chart {label!r} does not match --r1 {args['--r1']}")


_CHECKS = {
    "family": _check_family,
    "sweep": _check_sweep,
    "audit": _check_audit,
    "limit": _check_limit,
    "verify": _check_verify,
}


def is_exit_failure(problems: list[str]) -> bool:
    """True when the op failed by exiting nonzero rather than by printing a wrong value."""
    return len(problems) == 1 and problems[0].startswith("exit ")


def check(argv, code: int, out: str, err: str = "") -> list[str]:
    """Problems with one op's result; empty when the op succeeded and printed correct values."""
    if code != 0:
        return [f"exit {code}: {err.strip()[-200:]}"]
    problems: list[str] = []
    try:
        _CHECKS[argv[0]](parse_flags(argv), out, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
