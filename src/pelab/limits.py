"""Degeneration limits of the family: the rescaled Ricci-flat profile.

For the smooth-cone subfamily with lam = 2 and r1 = 1 + t, rescaling the
metric by 1/t (equivalently applying (c, Lambda) -> (c/t, t*Lambda)) and
passing to the variable rho with rho^2 = c (r^2 - 1) produces, as t -> 0,
the complete Ricci-flat limit

    g_inf = U^-1 drho^2 + U rho^2 theta^2 + rho^2 ghat,

where U solves d/drho (rho^(2n+2) U) = lam * rho^(2n+1) with U(rho1) = 0:

    U(rho) = (lam/(2n+2)) (1 - (rho1/rho)^(2n+2)).

Only rho1^2 enters the closed form, so profiles carry it as an exact
rational; the tests check the ODE and the smoothness of g_inf at rho1 in
exact arithmetic.  The theta^2 coefficient identity at finite t,
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
import sys
from fractions import Fraction

from . import UsageError
from .family import AuditMismatch, _check_base, scaling_action, smooth_cone_member, solve_profile
from .laurent import LaurentPoly, _coerce
from .records import record


@record
class RescaledProfile:
    """The limit profile U(rho) = (lam/(2n+2)) (1 - (rho1/rho)^(2n+2)), zero at rho1.

    rho1_sq is exact; rho1 itself may be irrational and is exposed as a
    float.  rho1_sq = 0 gives the constant profile U = lam/(2n+2).
    """

    n: int
    lam: Fraction
    rho1_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", _coerce(self.lam))
        object.__setattr__(self, "rho1_sq", _coerce(self.rho1_sq))
        _check_base(self.n, self.lam)
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


@record
class Rho1Limit:
    """Both candidates for the inner radius squared of the limit profile.

    derived_sq is lim_{t->0} c_t (t+2) with c_t the smooth-cone value.
    For lam = 2 the product is t-independent: it is evaluated exactly at
    three geometrically spaced t, which must agree exactly.
    paper_sq = 4/(2n+1) is the printed constant.
    """

    derived_sq: Fraction
    paper_sq: Fraction


def rho1_limit(n: int) -> Rho1Limit:
    """rho1^2 = c_t (t+2) for the lam = 2 family, checked exactly t-independent."""
    ts = [Fraction(1, 10**k) for k in (4, 6, 8)]
    values = tuple(smooth_cone_member(n, t).c * (t + 2) for t in ts)
    if len(set(values)) != 1:
        raise AuditMismatch(f"rho1^2 = c_t (t+2) depends on t: {values}")
    return Rho1Limit(derived_sq=values[0], paper_sq=Fraction(4, 2 * n + 1))


@record
class LimitComparison:
    """Pointwise deviation table of the rescaled family from g_inf.

    rows: (t, rho, dev_drho2, dev_theta2, dev_base) with each deviation
    computed exactly and rounded once to a float; dev_base is 0.0 since the
    ghat coefficient equals rho^2 identically at every t.
    """

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


def _surd_float(x: int, y: int, m: int, z: int) -> float:
    """|x + y sqrt(m)| / |z| for integers x, y, m >= 0 and z != 0, rounded to a float once.

    |x| + |y| sqrt(m) is formed to 125 bits as conjugate / 2^(128 - j); where x and y have
    opposite signs the sum cancels, and the exact x^2 - y^2 m over that conjugate is used."""
    ysq_m = y * y * m
    j = ysq_m.bit_length() // 2
    conjugate = (abs(x) << 128 >> j) + math.isqrt(ysq_m << 256 >> 2 * j)
    if (x < 0) != (y < 0):
        return (abs(x * x - ysq_m) << 128) / (abs(z) * conjugate << j)
    return (conjugate << j) / (abs(z) << 128)


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    logs_x = [math.log(float(x)) for x in xs]
    logs_y = [math.log(float(y)) for y in ys]
    xbar = sum(logs_x) / len(logs_x)
    ybar = sum(logs_y) / len(logs_y)
    return sum((a - xbar) * (b - ybar) for a, b in zip(logs_x, logs_y)) / sum((a - xbar) ** 2 for a in logs_x)


def limit_comparison(n: int, t_values, rho_grid) -> LimitComparison:
    """Compare the 1/t-rescaled smooth-cone metrics against g_inf (lam = 2).

    For each t: the smooth-cone member g_t (r1 = 1+t, c = smooth_c), then
    (c, Lambda) -> (c/t, t Lambda).  In the rho variable the ghat
    coefficient equals rho^2 identically; the drho^2 coefficient is
    1/(U_t(rho) r(rho)^2) and the theta^2 coefficient is U_t(rho) rho^2,
    with U_t(rho) = C t P_t(r)/(r^2-1)^(n+1) and C = c/t.  Deviations
    from the g_inf coefficients are measured on rho_grid, whose points
    must be positive and above the inner radius sqrt(C t (t+2)) = rho1; the
    fitted order is the log-log slope of the sup deviation against t, None
    where the float logs of all t are equal or a sup deviation is 0.
    """
    ts = [_coerce(t) for t in t_values]
    if not ts:
        raise UsageError("t_values must not be empty")
    if any(t <= 0 for t in ts) or any(later >= t for t, later in zip(ts, ts[1:])):
        raise UsageError("t_values must be positive and decreasing")
    if ts[-1] < sys.float_info.min or ts[0] > sys.float_info.max:
        raise UsageError("t_values must lie in the float range, where the fitted order takes log t")
    grid = [_coerce(rho) for rho in rho_grid]
    if not grid:
        raise UsageError("rho_grid must not be empty")
    rho1 = rho1_limit(n)
    u_inf_poly = RescaledProfile(n, 2, rho1.derived_sq).as_laurent()
    for rho in grid:  # C t (t+2) = c_t (t+2) = rho1^2 at every t, so the inner radius is rho1
        if rho <= 0 or rho**2 <= rho1.derived_sq:
            raise UsageError(f"rho = {rho} is below the inner radius for t = {ts[0]}")
    u_inf = [u_inf_poly(rho) for rho in grid]
    rows = []
    for t in ts:
        scaled = scaling_action(smooth_cone_member(n, t), Fraction(1) / t)
        # P is r times an antiderivative of the even ODE right-hand side, so C P(r) =
        # A(r^2) + B r; times the common denominator d, B and A's coefficients are integers
        cp = scaled.c * solve_profile(scaled)
        d = math.lcm(*(c.denominator for _, c in cp.items()))
        a_coeffs = [int(cp.coefficient(e) * d) for e in range(2 * n + 2, -1, -2)]
        b = int(cp.coefficient(1) * d)
        for rho, u in zip(grid, u_inf):
            # w = r^2 - 1 = rho^2/C = wn/wd and s = r^2 = sn/wd, so r = sqrt(m)/wd and
            # U_t = C P(r)/w^(n+1) = (x + y sqrt(m))/z with x = d wd^(n+1) A(s)
            pn, pd, un, ud = rho.numerator**2, rho.denominator**2, u.numerator, u.denominator
            wn, wd = pn * scaled.c.denominator, pd * scaled.c.numerator
            sn = wn + wd
            m, x = sn * wd, sum(a * sn ** (n + 1 - i) * wd**i for i, a in enumerate(a_coeffs))
            y, z = b * wd**n, d * wn ** (n + 1)
            k = x * x - y * y * m  # (x + y sqrt(m))(x - y sqrt(m)), so 1/(U_t s) = z wd (x - y sqrt(m))/(sn k)
            try:
                dev_drho2 = _surd_float(z * wd * un * x - ud * sn * k, -z * wd * un * y, m, sn * k * un)
                dev_theta2 = _surd_float((x * ud - un * z) * pn, y * ud * pn, m, z * ud * pd)
            except OverflowError:
                raise UsageError(f"t = {t}, rho = {rho}: a deviation lies beyond the float range") from None
            rows.append((t, rho, dev_drho2, dev_theta2, 0.0))  # dev_base: C (r^2-1) = rho^2 by definition of w
    blocks = [rows[i : i + len(grid)] for i in range(0, len(rows), len(grid))]
    sups = {key: [max(row[col] for row in block) for block in blocks] for col, key in enumerate(("dev_drho2", "dev_theta2", "dev_base"), 2)}

    # the slope takes log t in floats: one t, or exact ts of one float log, fit no order
    one_log_t = len({math.log(float(t)) for t in ts}) == 1
    orders = {key: None if one_log_t or any(v == 0 for v in values) else _loglog_slope(ts, values) for key, values in sups.items()}
    return LimitComparison(
        rows=tuple(rows),
        sup_deviations=sups,
        fitted_orders=orders,
        rho1_sq_derived=rho1.derived_sq,
        rho1_sq_paper=rho1.paper_sq,
    )
