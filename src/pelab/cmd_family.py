"""pelab family: the closed-form data of one family member."""

from __future__ import annotations

from . import family as fam
from .cli import _json_text, _params_from_args


def cmd_family(args):
    params = _params_from_args(args)
    report = fam.family_report(params)
    if args.format == "json":
        return 0, _json_text(report)
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
    return 0, "\n".join(lines) + "\n"
