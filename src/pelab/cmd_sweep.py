"""pelab sweep: the exact edge data of a row per value of one parameter."""

# The rows of sweep --verify go to the engine in groups of 64 // --points
# whole rows, at least one (geom.row_maxima); each row draws from its own
# seed.  The verify module, which draws them, is imported only under --verify.

from __future__ import annotations

import math
from fractions import Fraction

from . import family as fam
from .cli import _MAX_COUNT, UsageError, _csv_chunks, _fmt, _json_text, _params_from_args, _write_output
from .family import FamilyParams


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
        from .cmd_verify import _check_points, _check_seed, _page_pope_batch

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
