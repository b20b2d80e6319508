"""Command-line harness: family reports, verification suites, audits, sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 internal audit mismatch (two exact routes to one quantity disagreed,
which would indicate a bug, never a property of the inputs).

All randomness is drawn from numpy's default PCG64 generator seeded with
--seed, so identical flags give byte-identical output.  Exact rationals
are printed as p/q; floats are printed with full round-trip precision.
numpy and the float engine (jets, geom) are imported only by the commands
that evaluate curvature, verify and sweep --verify.
"""

# (The docstring is the --help text.)  The seeded points are numpy's
# PCG64/SeedSequence stream, the doubles of default_rng(seed).random(),
# drawn by pelab.pcg64 without importing numpy's random package.  The
# rows of sweep --verify go to the engine in groups of 64 // --points whole
# rows, at least one (geom.row_maxima); each row draws from its own seed.

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

# Every command is a fresh interpreter, so limits (limit, audit, verify
# --chart rescaled), audits (audit), json and csv are imported where used.
from . import VerificationFailure, family as fam
from .family import AuditMismatch, FamilyParams

USAGE_ERROR = 2
VERIFY_ERROR = 1
AUDIT_ERROR = 3

# sweep --count, limit --rho-grid and the --points of verify and sweep --verify
# build every value (every point of a row) before the first row is written
_MAX_COUNT = 100_000


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Exit 2.  Raised by a flag's type function, argparse reports it against the flag."""


def _rat(text: str, flag: str | None = None) -> Fraction:
    """An exact flag value.  argparse names the flag of a type= value; other callers pass it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        where = f"argument {flag}: " if flag else ""
        raise UsageError(f"{where}not a rational number: {text!r} ({exc})") from exc


def _real(text: str) -> float:
    """A float flag that also takes an exact p/q."""
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _add_param_flags(sub):
    sub.add_argument("--n", type=int, default=1, help="complex dimension of the base (default 1)")
    sub.add_argument("--lambda", dest="lam", type=_rat, help="base Einstein constant lam > 0")
    sub.add_argument("--c", type=_rat, help="fibre scale c > 0")
    sub.add_argument("--Lambda", type=_rat, help="total Einstein constant Lambda < 0")
    sub.add_argument("--r1", type=_rat, help="root radius r1 >= 1")
    sub.add_argument("--k", type=int, help="catalogue shortcut: lam=(2n+2)/k, c=1/k, Lambda=-(2n+1)")


def _params_from_args(args, r1=None) -> FamilyParams:
    r1 = r1 if r1 is not None else getattr(args, "r1", None)
    if args.k is not None:
        if args.lam is not None or args.c is not None or args.Lambda is not None:
            raise UsageError("--k replaces --lambda/--c/--Lambda; do not combine them")
        if r1 is None:
            raise UsageError("--r1 is required")
        return fam.cpn_catalogue(args.n, args.k, r1)
    missing = [name for name, v in (("--lambda", args.lam), ("--c", args.c), ("--Lambda", args.Lambda), ("--r1", r1)) if v is None]
    if missing:
        raise UsageError(f"missing required flags: {', '.join(missing)}")
    return FamilyParams(n=args.n, lam=args.lam, c=args.c, Lambda=args.Lambda, r1=r1)


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _csv_chunks(header, rows):
    """The CSV text of header and rows in chunks of about 64 KB, each row formatted as it is drawn."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
        if buf.tell() >= 1 << 16:
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()


def _write_output(text, path: str | None):
    """Write text, a str or an iterable of str chunks, to path or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if not path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


# -- family --------------------------------------------------------------


def cmd_family(args) -> int:
    params = _params_from_args(args)
    report = fam.family_report(params)
    if args.format == "json":
        _write_output(_json_text(report), args.output)
        return 0
    lines = [
        f"params: n={params.n} lambda={params.lam} c={params.c} Lambda={params.Lambda} r1={params.r1}",
        f'P = "{report["P_text"]}"',
    ]
    if params.is_conic:
        conic = report["conic"]
        lines += [
            "conic case (r1 = 1):",
            f"  alpha continuation (lam/2) = {conic['alpha_continuation']}",
            f"  theta coefficient = {conic['theta_coeff']}",
            f"  base coefficient derived = {conic['base_coeff_derived']}",
            f"  base coefficient printed = {conic['base_coeff_paper']}",
            f"  leading jet constant = {conic['k_leading']} (quoted form {conic['k_quoted']})",
        ]
    else:
        scale, alpha_sq, beta_sq_jet = fam.expand_at_edge(params, fam.solve_profile(params))
        lines += [
            f"edge model (r1 = {params.r1}):",
            f"  alpha = {report['alpha']} (cone angle 2*pi*alpha)",
            f"  beta_sq derived = {report['beta_sq_derived']}",
            f"  beta_sq printed = {report['beta_sq_paper']}",
            f"  jet oracle: alpha_sq = {alpha_sq}, beta_sq = {beta_sq_jet}",
            f"  scale = {scale}",
        ]
    lines += [
        f"berger_coeff = {report['berger_coeff']}",
        f"z_scale = {report['z_scale']}",
        f"positivity: {report['positivity'].upper()}",
    ]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# -- verify --------------------------------------------------------------


def _sample_points(seed: int, count: int, lower: float, upper: float):
    """count chart points (radial, psi, u, v) as one (count, 4) draw of the stream seeded with seed.

    Each row takes four consecutive doubles u of default_rng(seed).random()
    and scales each as low + (high - low) * u, which is what
    Generator.uniform computes: the radial coordinate in [lower, upper),
    psi, and a disk radius and angle for (u, v) inside the disk of radius 0.9.
    """
    import numpy as np

    from . import pcg64

    low, high = np.array((lower, 0.05, 0.0, 0.0)), np.array((upper, 2 * math.pi - 0.05, 1.0, 2 * math.pi))
    draw = pcg64.random(seed, 4 * count).reshape(count, 4)
    draw *= high - low
    draw += low
    disk_r = 0.9 * np.sqrt(draw[:, 2])
    draw[:, 2], draw[:, 3] = disk_r * np.cos(draw[:, 3]), disk_r * np.sin(draw[:, 3])
    return draw


# The flags of the page-pope chart's family member and of the rescaled
# chart's profile; each chart refuses the other's (None means not given).
_OTHER_CHART_FLAGS = {
    "page-pope": (("--rho1", "rho1"), ("--profile-lambda", "profile_lambda")),
    "rescaled": (("--k", "k"), ("--lambda", "lam"), ("--c", "c"), ("--Lambda", "Lambda"), ("--r1", "r1")),
}


def _radial_window(r1: float) -> tuple[float, float]:
    """Radial sampling window of the page-pope chart: [r1 + 0.1, max(10, r1 + 1)]."""
    lower = r1 + 0.1
    if not lower > r1:  # from about 2^50 on, r1 + 0.1 rounds back to r1
        raise UsageError(f"r1 = {r1!r} lies beyond the float sampling window (r1 + 0.1 rounds to r1)")
    return lower, max(10.0, r1 + 1.0)


def _page_pope_batch(params: FamilyParams, seed: int, count: int, lam_check: float | None):
    """The page-pope chart of params, count seeded points in its radial window, and lam_check (None: Lambda as a float)."""
    from . import geom

    chart = geom.page_pope_chart(params)
    points = _sample_points(seed, count, *_radial_window(float(params.r1)))
    if lam_check is None:
        try:
            lam_check = float(params.Lambda)
        except OverflowError:
            raise UsageError(f"Lambda = {params.Lambda} lies beyond the float range") from None
    return chart, points, lam_check


def _check_points(points: int):
    """--points of verify and sweep --verify, checked before any point is drawn."""
    if points < 1:
        raise UsageError("--points must be >= 1")
    if points > _MAX_COUNT:
        raise UsageError(f"--points must be <= {_MAX_COUNT}")


def _check_seed(seed: int):
    """SeedSequence seeds only from non-negative integers."""
    if seed < 0:
        raise UsageError("--seed must be >= 0")


def _float_rows(*arrays):
    """The rows of (N, k) float arrays side by side as lists of Python floats, converted 4096 rows at a time."""
    import numpy as np

    for start in range(0, len(arrays[0]), 4096):
        yield from np.hstack([a[start : start + 4096] for a in arrays]).tolist()


def cmd_verify(args) -> int:
    # geom and the jets it imports are compiled before numpy loads; compiled
    # on top of numpy's heap they would raise the command's peak RSS by 1 MB
    from . import geom

    import numpy as np

    _check_points(args.points)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a finite number > 0, got {args.tol!r}")
    if args.Lambda_check is not None and not math.isfinite(args.Lambda_check):
        raise UsageError(f"--Lambda-check must be a finite number, got {args.Lambda_check!r}")
    _check_seed(args.seed)
    given = [flag for flag, dest in _OTHER_CHART_FLAGS[args.chart] if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"--chart {args.chart} does not take {', '.join(given)}")
    if args.chart == "page-pope":
        chart, points, lam_check = _page_pope_batch(_params_from_args(args), args.seed, args.points, args.Lambda_check)
    else:
        from .limits import RescaledProfile

        profile_lambda = args.profile_lambda if args.profile_lambda is not None else Fraction(2)
        profile = RescaledProfile(args.n, profile_lambda, _resolve_rho1_sq(args))
        chart = geom.rescaled_chart(profile)
        lam_check = args.Lambda_check if args.Lambda_check is not None else 0.0
        rho1f = profile.rho1
        lower, upper = (1.1 * rho1f, 5.0 * rho1f) if rho1f > 0 else (0.5, 3.0)
        points = _sample_points(args.seed, args.points, lower, upper)
    columns = geom.point_scalars(chart, points, lam_check)
    label = chart.label

    worst = int(np.argmax(columns[:, 0]))
    worst_point = tuple(points[worst].tolist())
    max_res = float(columns[worst, 0])
    max_bianchi, max_sym = columns[:, 2:].max(axis=0).tolist()
    ok = max_res <= args.tol

    if args.format == "json":
        payload = {
            "chart": label,
            "points": args.points,
            "seed": args.seed,
            "Lambda_check": lam_check,
            "tol": args.tol,
            "max_einstein_residual": max_res,
            "max_bianchi": max_bianchi,
            "max_symmetry": max_sym,
            "pass": ok,
            "worst_point": list(worst_point),
        }
        _write_output(_json_text(payload), args.output)
    elif args.format == "csv":
        _write_output(_csv_chunks([*chart.coords, *geom.SCALAR_COLUMNS], _float_rows(points, columns)), args.output)
    else:
        lines = [
            f"chart: {label}",
            f"points: {args.points} seed: {args.seed} Lambda_check: {_fmt(lam_check)}",
            f"max einstein residual: {max_res!r} (tol {args.tol!r})",
            f"max bianchi: {max_bianchi!r}",
            f"max symmetry: {max_sym!r}",
            "PASS" if ok else f"FAIL at point {worst_point}",
        ]
        _write_output("\n".join(lines) + "\n", args.output)
    return 0 if ok else VERIFY_ERROR


def _resolve_rho1_sq(args) -> Fraction:
    from .limits import rho1_limit

    spec = "derived" if args.rho1 is None else args.rho1
    if spec == "derived":
        return rho1_limit(args.n).derived_sq
    if spec == "paper":
        return rho1_limit(args.n).paper_sq
    rho1 = _rat(spec, "--rho1")
    if rho1 < 0:
        raise UsageError(f"--rho1 must be >= 0, got {spec}")
    return rho1**2


# -- audit ---------------------------------------------------------------


def cmd_audit(args) -> int:
    from .audits import render_table, run_audits

    rows = run_audits()
    if args.format == "json":
        _write_output(_json_text([r.as_dict() for r in rows]), args.output)
    else:
        _write_output(render_table(rows) + "\n", args.output)
    return 0


# -- sweep ---------------------------------------------------------------


def _sweep_values(args):
    if args.count < 2:
        raise UsageError("--count must be >= 2")
    if args.count > _MAX_COUNT:
        raise UsageError(f"--count must be <= {_MAX_COUNT}")
    if not args.start < args.stop:
        raise UsageError("--start must be < --stop")
    if args.param == "k":
        if args.spacing != "linear":
            raise UsageError("k sweeps need --spacing linear")
        lo, hi = int(args.start), int(args.stop)
        if Fraction(lo) != args.start or Fraction(hi) != args.stop:
            raise UsageError("k sweeps need integer --start/--stop")
        if args.count != hi - lo + 1:
            raise UsageError("k sweeps need --count equal to stop - start + 1")
        return [Fraction(k) for k in range(lo, hi + 1)]
    if args.spacing == "linear":
        step = (args.stop - args.start) / (args.count - 1)
        return [args.start + i * step for i in range(args.count)]
    if args.start <= 0:
        raise UsageError("log spacing requires --start > 0")
    try:
        lo, hi = math.log(float(args.start)), math.log(float(args.stop))
    except (OverflowError, ValueError):  # a float that overflows, or underflows to 0.0 for math.log
        raise UsageError("log spacing needs --start and --stop within the float range") from None
    values = []
    for i in range(args.count):
        try:
            values.append(math.exp(lo + i * (hi - lo) / (args.count - 1)))
        except OverflowError:  # the last exponent rounded above hi = log(stop), and stop is near the float maximum
            values.append(math.exp(hi))
    return values


def _sweep_params(args, value) -> FamilyParams:
    exact = value if isinstance(value, Fraction) else Fraction(repr(value))
    if args.param == "r1":
        return _params_from_args(args, r1=exact)
    if args.param == "t":
        if exact < 0:
            raise UsageError(f"--param t needs t >= 0, got {exact}")
        return _params_from_args(args, r1=1 + exact)
    if args.param == "c":
        if args.c is not None:
            raise UsageError("--c conflicts with sweeping c")
        if args.k is not None:
            raise UsageError("--k fixes c; it cannot be combined with sweeping c")
        if args.lam is None or args.Lambda is None or args.r1 is None:
            raise UsageError("sweeping c needs --lambda, --Lambda, --r1")
        return FamilyParams(n=args.n, lam=args.lam, c=exact, Lambda=args.Lambda, r1=args.r1)
    # k: the --param choices leave no other parameter
    if args.k is not None or args.lam is not None or args.c is not None or args.Lambda is not None:
        raise UsageError("sweeping k fixes lam, c, Lambda; only --n and --r1 may be given")
    if args.r1 is None:
        raise UsageError("sweeping k needs --r1")
    return fam.cpn_catalogue(args.n, int(exact), args.r1)


def _sweep_row(args, value) -> tuple[FamilyParams, list]:
    """The family member of one sweep value and its exact row."""
    params = _sweep_params(args, value)
    if params.is_conic:
        alpha = fam.cone_angle_conic_limit(params)
        beta_sq = None
    else:
        p = fam.solve_profile(params)
        em = fam.edge_model(params, p)
        alpha, beta_sq = em.alpha, em.beta_sq_derived
    return params, [params.r1, params.c, alpha, beta_sq, fam.conformal_infinity(params), fam.z_scale(params)]


def cmd_sweep(args) -> int:
    if args.param in ("r1", "t") and args.r1 is not None:
        raise UsageError(f"--r1 conflicts with sweeping {args.param}")
    if args.verify:
        _check_points(args.points)
        _check_seed(args.seed)
    values = _sweep_values(args)
    header = ["r1", "c", "alpha", "beta_sq_derived", "berger_coeff", "z_scale"]
    if not args.verify:
        rows = [_sweep_row(args, value)[1] for value in values]
    else:
        from . import geom

        header.append("max_einstein_residual")
        rows = []

        def batches():
            for idx, value in enumerate(values):
                params, row = _sweep_row(args, value)
                rows.append(row)
                yield _page_pope_batch(params, args.seed * 100003 + idx, args.points, None)

        for row, residual in zip(rows, geom.row_maxima(batches(), args.points)):
            row.append(residual)

    if args.format == "json":
        payload = [{name: _fmt(v) if not isinstance(v, float) else v for name, v in zip(header, row)} for row in rows]
        _write_output(_json_text(payload), args.output)
    else:
        _write_output(_csv_chunks(header, rows), args.output)
    return 0


# -- limit ---------------------------------------------------------------


def _parse_rho_grid(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("rho grid range must be start:stop:count")
        start, stop = _rat(parts[0], "--rho-grid"), _rat(parts[1], "--rho-grid")
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"--rho-grid count must be an integer, got {parts[2]!r}") from None
        if count > _MAX_COUNT:
            raise UsageError(f"--rho-grid count must be <= {_MAX_COUNT}")
        if count < 2 or not start < stop:
            raise UsageError("rho grid range needs start < stop and count >= 2")
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [_rat(v, "--rho-grid") for v in text.split(",") if v]


def _default_rho_grid(n: int):
    from .limits import rho1_limit

    rho1 = math.sqrt(rho1_limit(n).derived_sq)
    return [Fraction(repr(round(rho1 * (1.2 + 1.8 * j / 24), 9))) for j in range(25)]


def cmd_limit(args) -> int:
    if args.summary_output and args.format != "csv":
        raise UsageError("--summary-output needs --format csv")
    from .limits import limit_comparison

    ts = [_rat(v, "--t-list") for v in args.t_list.split(",") if v]
    grid = _parse_rho_grid(args.rho_grid) if args.rho_grid else _default_rho_grid(args.n)
    comparison = limit_comparison(args.n, ts, grid)

    if args.format == "json":
        payload = {
            "rows": [
                {"t": str(t), "rho": str(rho), "dev_drho2": d1, "dev_theta2": d2, "dev_base": d3}
                for t, rho, d1, d2, d3 in comparison.rows
            ],
            "summary": comparison.summary(),
        }
        _write_output(_json_text(payload), args.output)
        return 0
    _write_output(_csv_chunks(["t", "rho", "dev_drho2", "dev_theta2", "dev_base"], comparison.rows), args.output)
    if args.summary_output:
        _write_output(_json_text(comparison.summary()), args.summary_output)
    return 0


# -- parser ----------------------------------------------------------------


def _add_output_flags(sub, func, formats: list[str]):
    """--format (default: the first of formats), --output, and the command to run."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", help="write to file instead of stdout")
    sub.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p_family = subs.add_parser("family", help="closed-form data of one family member")
    _add_param_flags(p_family)
    _add_output_flags(p_family, cmd_family, ["text", "json"])

    p_verify = subs.add_parser("verify", help="numerical Einstein verification at sampled points")
    _add_param_flags(p_verify)
    p_verify.add_argument("--chart", choices=["page-pope", "rescaled"], default="page-pope")
    p_verify.add_argument("--rho1", help="rescaled chart inner radius: derived, paper, or a number")
    p_verify.add_argument("--profile-lambda", dest="profile_lambda", type=_rat, help="profile constant for the rescaled chart (2 canonical, 4 flat)")
    p_verify.add_argument("--points", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=_real, default=1e-6)
    p_verify.add_argument("--Lambda-check", dest="Lambda_check", type=_real, help="override the Einstein constant used in the residual")
    _add_output_flags(p_verify, cmd_verify, ["text", "json", "csv"])

    p_audit = subs.add_parser("audit", help="printed vs derived formula audit table")
    _add_output_flags(p_audit, cmd_audit, ["text", "json"])

    p_sweep = subs.add_parser("sweep", help="parameter sweep to CSV/JSON")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--param", choices=["r1", "c", "t", "k"], required=True)
    p_sweep.add_argument("--start", type=_rat, required=True)
    p_sweep.add_argument("--stop", type=_rat, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--verify", action="store_true", help="add a max einstein residual column (n = 1)")
    p_sweep.add_argument("--points", type=int, default=5, help="verification points per row")
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_sweep, cmd_sweep, ["csv", "json"])

    p_limit = subs.add_parser("limit", help="rescaled-limit deviation table")
    p_limit.add_argument("--n", type=int, default=1)
    p_limit.add_argument("--t-list", dest="t_list", default="0.1,0.01,0.001")
    p_limit.add_argument("--rho-grid", dest="rho_grid", help="comma list of rho values or start:stop:count")
    _add_output_flags(p_limit, cmd_limit, ["csv", "json"])
    p_limit.add_argument("--summary-output", dest="summary_output", help="write the JSON summary to a file (csv format only)")

    return parser


def _is_negative_number(text: str) -> bool:
    if not text.startswith("-"):
        return False
    for parse in (Fraction, float):
        try:
            parse(text)
            return True
        except ZeroDivisionError:  # -p/0: the flag's type names the flag and the value
            return True
        except ValueError:
            pass
    return False


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--flag -3/2" as "--flag=-3/2".

    argparse takes a value that starts with "-" only in the shapes -3 and
    -1.5; a negative p/q, -1e-3, -inf or -nan after a space would be read
    as an unknown option and reported as a missing argument.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and _is_negative_number(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except AuditMismatch as exc:
        print(f"audit mismatch: {exc}", file=sys.stderr)
        return AUDIT_ERROR
    except ValueError as exc:  # UsageError and the domain errors of family and limits
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
