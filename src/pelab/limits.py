"""Degeneration limits of the family: the rescaled Ricci-flat profile.

For the smooth-cone subfamily with lam = 2 and r1 = 1 + t, rescaling the
metric by 1/t (equivalently applying (c, Lambda) -> (c/t, t*Lambda)) and
passing to the variable rho with rho^2 = c (r^2 - 1) produces, as t -> 0,
the complete Ricci-flat limit

    g_inf = U^-1 drho^2 + U rho^2 theta^2 + rho^2 ghat,

where U solves d/drho (rho^(2n+2) U) = lam * rho^(2n+1) with U(rho1) = 0:

    U(rho) = (lam/(2n+2)) (1 - (rho1/rho)^(2n+2)).

Only rho1^2 enters the closed form, so profiles carry it as an exact
rational and every identity here (ODE residual, smoothness at rho1) is
checked in exact arithmetic.  The theta^2 coefficient identity at finite t,
c'^2 P (r^2-1)^-n == U_t rho^2, is algebra that holds for every P; the
tests prove it, and limit_comparison only reports it.
The inner radius circulates in two forms: the internally consistent
rho1^2 = 2/(2n+1) obtained from the smooth-cone family, where c_t (t+2)
is exactly t-independent (rho1_limit checks this at three t), and the printed
rho1^2 = 4/(2n+1); both are reported and the regularity of g_inf at rho1
does not depend on the choice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .family import AuditMismatch, FamilyParams, _loglog_slope, scaling_action, smooth_c, solve_profile
from .laurent import LaurentPoly, _coerce
from .records import record


class DomainError(ValueError):
    """A grid point fell outside the admissible rho range."""


@record
class RescaledProfile:
    """The limit profile U(rho) = (lam/(2n+2)) (1 - (rho1/rho)^(2n+2)).

    rho1_sq is exact; rho1 itself may be irrational and is exposed as a
    float.  rho1_sq = 0 gives the constant profile U = lam/(2n+2).
    """

    n: int
    lam: Fraction
    rho1_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", _coerce(self.lam))
        object.__setattr__(self, "rho1_sq", _coerce(self.rho1_sq))
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.rho1_sq < 0:
            raise ValueError(f"rho1_sq must be >= 0, got {self.rho1_sq}")

    @property
    def rho1(self) -> float:
        return math.sqrt(self.rho1_sq)

    @property
    def limit_value(self) -> Fraction:
        """U(rho) -> lam/(2n+2) as rho -> infinity."""
        return self.lam / (2 * self.n + 2)

    def as_laurent(self) -> LaurentPoly:
        """U as an exact Laurent polynomial in rho."""
        m = 2 * self.n + 2
        level = self.limit_value
        return LaurentPoly({0: level, -m: -level * self.rho1_sq ** (self.n + 1)})

    def u_at_sq(self, rho_sq) -> Fraction:
        """Exact U at a point given by rho^2 (U depends on rho only through it)."""
        rho_sq = _coerce(rho_sq)
        if rho_sq == 0:
            if self.rho1_sq:
                raise ZeroDivisionError("U undefined at rho = 0 when rho1 > 0")
            return self.limit_value
        return self.limit_value * (1 - self.rho1_sq ** (self.n + 1) / rho_sq ** (self.n + 1))


def rescaled_profile(n: int, lam, rho1_sq) -> RescaledProfile:
    """The closed-form solution of the rescaled profile ODE with zero at rho1."""
    return RescaledProfile(n=n, lam=lam, rho1_sq=rho1_sq)


def profile_ode_residual(profile: RescaledProfile, rho_samples) -> Fraction:
    """Max |d/drho (rho^(2n+2) U) - lam rho^(2n+1)| over the samples.

    The residual is formed by exact differentiation of the closed form,
    so it is identically zero; sampling confirms this at each point.
    """
    m = 2 * profile.n + 2
    combined = LaurentPoly.term(1, m) * profile.as_laurent()
    residual = combined.derivative() - LaurentPoly.term(profile.lam, m - 1)
    worst = Fraction(0)
    for rho in rho_samples:
        rho = _coerce(rho)
        if rho <= 0 or rho**2 <= profile.rho1_sq:
            raise DomainError(f"sample {rho} is not above rho1")
        worst = max(worst, abs(residual(rho)))
    return worst


@record
class RescalePoint:
    """Image of a radius r under rho^2 = c (r^2-1), U = c P(r)/(r^2-1)^(n+1)."""

    rho_sq: Fraction
    u: Fraction


def rescale_map(params: FamilyParams, r) -> RescalePoint:
    """Exact (rho^2, U) data of the rescaling at a rational radius r > r1."""
    r = _coerce(r)
    if r <= max(params.r1, 1):
        raise DomainError(f"need r > max(r1, 1), got {r}")
    p = solve_profile(params)
    w = r**2 - 1
    return RescalePoint(rho_sq=params.c * w, u=params.c * p(r) / w ** (params.n + 1))


@record
class Rho1Limit:
    """Both candidates for the inner radius squared of the limit profile.

    derived_sq is lim_{t->0} c_t (t+2) with c_t the smooth-cone value.
    For lam = 2 the product is t-independent: it is evaluated exactly at
    three geometrically spaced t (samples), which must agree exactly.
    paper_sq = 4/(2n+1) is the printed constant.
    """

    derived_sq: Fraction
    paper_sq: Fraction
    samples: tuple

    @property
    def paper(self) -> float:
        return math.sqrt(self.paper_sq)


def rho1_limit(n: int) -> Rho1Limit:
    """rho1^2 = c_t (t+2) for the lam = 2 family, checked exactly t-independent."""
    ts = [Fraction(1, 10**k) for k in (4, 6, 8)]
    values = tuple(smooth_c(n, 2, -(2 * n + 1), 1 + t) * (t + 2) for t in ts)
    if len(set(values)) != 1:
        raise AuditMismatch(f"rho1^2 = c_t (t+2) depends on t: {values}")
    return Rho1Limit(derived_sq=values[0], paper_sq=Fraction(4, 2 * n + 1), samples=values)


@record
class SmoothnessReport:
    """Leading block of g_inf at rho = rho1 + s^2.

    alpha_infinity = U'(rho1) rho1 / 2 = lam/2 exactly (rho1 cancels);
    the metric block is ds2_coeff (ds^2 + alpha_infinity^2 s^2 theta^2)
    + rho1^2 ghat with ds2_coeff = 4 rho1 / lam.
    """

    alpha_infinity: Fraction
    ds2_coeff: float
    theta_s2_coeff: float
    base_coeff_sq: Fraction


def limit_smoothness(profile: RescaledProfile) -> SmoothnessReport:
    """Edge data of g_inf at its inner radius; alpha = 1 exactly iff lam = 2."""
    if profile.rho1_sq <= 0:
        raise ValueError("smoothness analysis needs rho1 > 0")
    rho1 = profile.rho1
    return SmoothnessReport(
        alpha_infinity=profile.lam / 2,  # U'(rho1) rho1 = lam: rho1 cancels
        ds2_coeff=4 * rho1 / float(profile.lam),
        theta_s2_coeff=float(profile.lam) * rho1,
        base_coeff_sq=profile.rho1_sq,
    )


def flat_recovery(n: int) -> tuple[FamilyParams, RescaledProfile]:
    """The k = 1 catalogue entry together with the constant profile U = 1.

    U = 1 solves the rescaled ODE with lam = 2n+2 and rho1 = 0; the
    resulting g_inf = drho^2 + rho^2 theta^2 + rho^2 ghat is flat for n=1.
    """
    from .family import cpn_catalogue

    return cpn_catalogue(n, 1), rescaled_profile(n, 2 * n + 2, 0)


@record
class LimitComparison:
    """Pointwise deviation table of the rescaled family from g_inf.

    rows: (t, rho, dev_drho2, dev_theta2, dev_base) with floats for the
    measured deviations; dev_base is exactly 0 since the ghat coefficient
    equals rho^2 identically at every t.
    """

    t_values: tuple
    rho_grid: tuple
    rows: tuple
    sup_deviations: dict
    fitted_orders: dict
    rho1_sq_derived: Fraction
    rho1_sq_paper: Fraction

    def summary(self) -> dict:
        return {
            "fitted_order_per_coefficient": self.fitted_orders,
            "rho1_derived": math.sqrt(self.rho1_sq_derived),
            "rho1_paper": math.sqrt(self.rho1_sq_paper),
            "rho1_sq_derived": str(self.rho1_sq_derived),
            "rho1_sq_paper": str(self.rho1_sq_paper),
            # c'^2 P (r^2-1)^-n == [C P / (r^2-1)^(n+1)] [C (r^2-1)] = U_t rho^2
            # holds for every P by algebra; tests/test_limits.py proves it.
            "theta_identity_exact": True,
        }


def limit_comparison(n: int, t_values, rho_grid) -> LimitComparison:
    """Compare the 1/t-rescaled smooth-cone metrics against g_inf (lam = 2).

    For each t: r1 = 1+t, c = smooth_c(n, 2, -(2n+1), r1), then
    (c, Lambda) -> (c/t, t Lambda).  In the rho variable the ghat
    coefficient equals rho^2 identically; the drho^2 coefficient is
    1/(U_t(rho) r(rho)^2) and the theta^2 coefficient is U_t(rho) rho^2,
    with U_t(rho) = C t P_t(r)/(r^2-1)^(n+1) and C = c/t.  Deviations
    from the g_inf coefficients are measured on rho_grid, whose points
    must be positive and above the inner radius sqrt(C t (t+2)); the
    fitted order is the log-log slope of the sup deviation against t.
    """
    ts = [_coerce(t) for t in t_values]
    if not ts:
        raise ValueError("t_values must not be empty")
    if any(t <= 0 for t in ts) or any(later >= t for t, later in zip(ts, ts[1:])):
        raise ValueError("t_values must be positive and decreasing")
    grid = [_coerce(rho) for rho in rho_grid]
    if not grid:
        raise ValueError("rho_grid must not be empty")
    lam = Fraction(2)
    rho1 = rho1_limit(n)
    u_inf_poly = rescaled_profile(n, lam, rho1.derived_sq).as_laurent()

    rows = []
    sups = {"dev_drho2": [], "dev_theta2": [], "dev_base": []}
    for t in ts:
        base_params = FamilyParams(n=n, lam=lam, c=smooth_c(n, lam, -(2 * n + 1), 1 + t), Lambda=Fraction(-(2 * n + 1)), r1=1 + t)
        scaled = scaling_action(base_params, Fraction(1) / t)
        p_scaled = solve_profile(scaled)
        big_c = scaled.c
        lower_sq = big_c * ((1 + t) ** 2 - 1)
        worst = [0.0, 0.0, Fraction(0)]
        for rho in grid:
            if rho <= 0 or rho**2 <= lower_sq:
                raise DomainError(f"rho = {rho} is below the inner radius for t = {t}")
            r_sq = 1 + rho**2 / big_c
            try:
                r = math.sqrt(r_sq)
                u_t = float(big_c) * p_scaled.eval_float(r) / (float(r_sq) - 1) ** (n + 1)
                u_inf = u_inf_poly.eval_float(math.sqrt(rho**2))
                dev_drho2 = abs(1.0 / (u_t * float(r_sq)) - 1.0 / u_inf)
                dev_theta2 = abs(u_t - u_inf) * float(rho**2)
            except (OverflowError, ZeroDivisionError) as exc:  # r_sq rounds to 1.0 once C passes about 1e16
                fault = "overflows" if isinstance(exc, OverflowError) else "divides by zero"
                raise DomainError(f"t = {t}, rho = {rho}: the float evaluation of the comparison {fault}") from None
            dev_base = abs(big_c * (r_sq - 1) - rho**2)  # exact, identically zero
            rows.append((t, rho, dev_drho2, dev_theta2, dev_base))
            worst[0] = max(worst[0], dev_drho2)
            worst[1] = max(worst[1], dev_theta2)
            worst[2] = max(worst[2], dev_base)
        sups["dev_drho2"].append(worst[0])
        sups["dev_theta2"].append(worst[1])
        sups["dev_base"].append(worst[2])

    orders = {
        key: None if any(v == 0 for v in values) or len(ts) < 2 else _loglog_slope(ts, values)
        for key, values in sups.items()
    }
    return LimitComparison(
        t_values=tuple(ts),
        rho_grid=tuple(grid),
        rows=tuple(rows),
        sup_deviations=sups,
        fitted_orders=orders,
        rho1_sq_derived=rho1.derived_sq,
        rho1_sq_paper=rho1.paper_sq,
    )
