"""pelab limit: the deviation of the rescaled metrics from their t -> 0 limit."""

from __future__ import annotations

import math
from fractions import Fraction

from . import UsageError, limits
from .cli import _MAX_COUNT, _csv_chunks, _json_text, _rat, _write_output


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
    rho1 = math.sqrt(limits.rho1_limit(n).derived_sq)
    return [Fraction(repr(round(rho1 * (1.2 + 1.8 * j / 24), 9))) for j in range(25)]


def cmd_limit(args):
    if args.summary_output and args.format != "csv":
        raise UsageError("--summary-output needs --format csv")
    ts = [_rat(v, "--t-list") for v in args.t_list.split(",") if v]
    grid = _parse_rho_grid(args.rho_grid) if args.rho_grid else _default_rho_grid(args.n)
    comparison = limits.limit_comparison(args.n, ts, grid)

    if args.format == "json":
        payload = {
            "rows": [
                {"t": str(t), "rho": str(rho), "dev_drho2": d1, "dev_theta2": d2, "dev_base": d3}
                for t, rho, d1, d2, d3 in comparison.rows
            ],
            "summary": comparison.summary(),
        }
        return 0, _json_text(payload)
    # the summary is written first: a failed summary write leaves stdout and --output untouched
    if args.summary_output:
        _write_output(_json_text(comparison.summary()), args.summary_output)
    return 0, _csv_chunks(["t", "rho", "dev_drho2", "dev_theta2", "dev_base"], comparison.rows)
