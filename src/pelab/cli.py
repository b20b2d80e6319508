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

# (The docstring is the --help text.)  This module holds the parser, main
# and what several commands share.  Each command's code is its own module,
# pelab.cmd_<command>, which main imports once the command is known, so
# an op compiles only the code of the command it runs.

from __future__ import annotations

import argparse
import importlib
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
    return "" if value is None else str(value)


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


# -- parser ----------------------------------------------------------------


def _add_output_flags(sub, formats: list[str]):
    """--format (default: the first of formats) and --output."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p_family = subs.add_parser("family", help="closed-form data of one family member")
    _add_param_flags(p_family)
    _add_output_flags(p_family, ["text", "json"])

    p_verify = subs.add_parser("verify", help="numerical Einstein verification at sampled points")
    _add_param_flags(p_verify)
    p_verify.add_argument("--chart", choices=["page-pope", "rescaled"], default="page-pope")
    p_verify.add_argument("--rho1", help="rescaled chart inner radius: derived, paper, or a number")
    p_verify.add_argument("--profile-lambda", dest="profile_lambda", type=_rat, help="profile constant for the rescaled chart (2 canonical, 4 flat)")
    p_verify.add_argument("--points", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=_real, default=1e-6)
    p_verify.add_argument("--Lambda-check", dest="Lambda_check", type=_real, help="override the Einstein constant used in the residual")
    _add_output_flags(p_verify, ["text", "json", "csv"])

    p_audit = subs.add_parser("audit", help="printed vs derived formula audit table")
    _add_output_flags(p_audit, ["text", "json"])

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
    _add_output_flags(p_sweep, ["csv", "json"])

    p_limit = subs.add_parser("limit", help="rescaled-limit deviation table")
    p_limit.add_argument("--n", type=int, default=1)
    p_limit.add_argument("--t-list", dest="t_list", default="0.1,0.01,0.001")
    p_limit.add_argument("--rho-grid", dest="rho_grid", help="comma list of rho values or start:stop:count")
    _add_output_flags(p_limit, ["csv", "json"])
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
    command = importlib.import_module(f".cmd_{args.command}", __package__)
    try:
        return getattr(command, f"cmd_{args.command}")(args)
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
