"""Exact construction and numerical verification of a closed-form family
of Poincare-Einstein metrics on complex line bundles, together with its
conic and Ricci-flat degeneration limits and an audit of the circulating
closed-form constants."""

from .laurent import LaurentPoly, LaurentQuotient, NonIntegrableTerm, ZeroBase
from .family import (
    AuditMismatch,
    ConicCase,
    ConicModel,
    ConformalInfinity,
    EdgeCase,
    EdgeModel,
    FamilyParams,
    MetricCoefficients,
    NoSmoothMetric,
    PositivityViolation,
    asymptotic_coefficients,
    cone_angle,
    conformal_infinity,
    conic_model,
    cpn_catalogue,
    edge_model,
    expand_at_edge,
    metric_coefficients,
    positivity_check,
    profile_slope_at_r1,
    scaling_action,
    smooth_c,
    solve_profile,
    z_scale,
)

# Modules that load on first use of one of their names: limits (only
# `limit`, `audit` and the rescaled `verify` need it) and the float engine
# (numpy, jets, geom), so the other exact-only CLI commands run without them.
_ON_FIRST_USE = {
    "limits": (
        "DomainError",
        "RescaledProfile",
        "flat_recovery",
        "limit_comparison",
        "limit_smoothness",
        "profile_ode_residual",
        "rescale_map",
        "rescaled_profile",
        "rho1_limit",
    ),
    "jets": ("Jet2",),
    "geom": (
        "ChartMetric",
        "CurvatureReport",
        "DegeneratePlane",
        "SingularMetric",
        "StepTooLarge",
        "UnsupportedDimension",
        "christoffel",
        "curvature_report",
        "einstein_residual",
        "fd_oracle",
        "page_pope_chart",
        "rescaled_chart",
        "riemann",
        "sectional",
    ),
}
_LAZY = {name: module for module, names in _ON_FIRST_USE.items() for name in (module, *names)}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted(name for name in __dir__() if not name.startswith("_"))
__version__ = "0.1.0"
