"""pelab verify: the numerical Einstein check at seeded points of a chart.

sweep --verify checks its flags and draws its rows' points with this
module's _check_points, _check_seed and _page_pope_batch.
"""

# The seeded points are numpy's PCG64/SeedSequence stream, the doubles of
# default_rng(seed).random(), drawn by pelab.pcg64 without importing
# numpy's random package.  geom, numpy and pcg64, which every verify runs,
# are imported at the top; limits only for the rescaled chart.

from __future__ import annotations

import math
from fractions import Fraction

from . import UsageError
from .cli import _MAX_COUNT, VERIFY_ERROR, _csv_chunks, _fmt, _json_text, _params_from_args, _rat
from .family import FamilyParams

# geom and the jets it imports are compiled before numpy loads; compiled
# on top of numpy's heap they would raise the command's peak RSS by 1 MB
from . import geom

import numpy as np

from . import pcg64


def _sample_points(seed: int, count: int, lower: float, upper: float):
    """count chart points (radial, psi, u, v) as one (count, 4) draw of the stream seeded with seed.

    Each row takes four consecutive doubles u of default_rng(seed).random()
    and scales each as low + (high - low) * u, which is what
    Generator.uniform computes: the radial coordinate in [lower, upper),
    psi, and a disk radius and angle for (u, v) inside the disk of radius 0.9.
    """
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
    for start in range(0, len(arrays[0]), 4096):
        yield from np.hstack([a[start : start + 4096] for a in arrays]).tolist()


def cmd_verify(args):
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
        output = _json_text(payload)
    elif args.format == "csv":
        output = _csv_chunks([*chart.coords, *geom.SCALAR_COLUMNS], _float_rows(points, columns))
    else:
        lines = [
            f"chart: {label}",
            f"points: {args.points} seed: {args.seed} Lambda_check: {_fmt(lam_check)}",
            f"max einstein residual: {max_res!r} (tol {args.tol!r})",
            f"max bianchi: {max_bianchi!r}",
            f"max symmetry: {max_sym!r}",
            "PASS" if ok else f"FAIL at point {worst_point}",
        ]
        output = "\n".join(lines) + "\n"
    return (0 if ok else VERIFY_ERROR), output


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
