"""Rescaled limit profile, the degeneration comparison and the inner radius."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pelab.cli import _default_rho_grid
from pelab.family import AuditMismatch, FamilyParams, _r2m1, metric_coefficients, scaling_action, smooth_c, solve_profile
from pelab.laurent import LaurentPoly, LaurentQuotient
from pelab.limits import (
    DomainError,
    flat_recovery,
    limit_comparison,
    limit_smoothness,
    profile_ode_residual,
    rescale_map,
    rescaled_profile,
    rho1_limit,
)

HYPERBOLIC = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
CONIC = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1))


def test_profile_closed_form():
    prof = rescaled_profile(1, 2, F(2, 3))
    # U = 1/2 (1 - rho1^4/rho^4), the n = 1 gravitational-instanton profile
    assert prof.as_laurent() == LaurentPoly({0: F(1, 2), -4: -F(2, 9)})
    assert prof.u_at_sq(prof.rho1_sq) == 0
    assert prof.as_laurent()(F(2)) == F(1, 2) * (1 - F(4, 9) / 16)
    assert prof.limit_value == F(1, 2)


def test_profile_monotone_and_limit():
    prof = rescaled_profile(2, 3, F(1, 2))
    values = [prof.u_at_sq(prof.rho1_sq + F(k, 3)) for k in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert prof.as_laurent()(F(10**6)) < prof.limit_value


def test_constant_profile():
    prof = rescaled_profile(1, 4, 0)
    assert prof.as_laurent() == LaurentPoly.constant(1)
    assert prof.as_laurent()(F(7, 3)) == 1


def test_ode_residual_fixtures():
    assert profile_ode_residual(rescaled_profile(1, 2, F(2, 3)), [F(2)]) == 0
    assert profile_ode_residual(rescaled_profile(2, 2, F(1, 4)), [F(3)]) == 0
    assert profile_ode_residual(rescaled_profile(1, 4, 0), [F(1)]) == 0


@given(
    n=st.integers(min_value=1, max_value=5),
    lam=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10),
    rho1_sq=st.fractions(min_value=0, max_value=4, max_denominator=10),
    rho=st.fractions(min_value=3, max_value=9, max_denominator=10),
)
def test_ode_residual_property(n, lam, rho1_sq, rho):
    assert profile_ode_residual(rescaled_profile(n, lam, rho1_sq), [rho]) == 0


def test_ode_residual_domain():
    with pytest.raises(DomainError):
        profile_ode_residual(rescaled_profile(1, 2, F(4)), [F(1)])


def test_rescale_map_hyperbolic():
    # P = (r^2-1)^2 and c = 1 give U identically 1 (the flat-limit profile)
    for r in (F(2), F(7, 2), F(13, 3)):
        assert rescale_map(HYPERBOLIC, r).u == 1


def test_rescale_map_fixture():
    point = rescale_map(CONIC, F(2))
    assert point.rho_sq == 1
    assert point.u == F(11, 27)
    # rho^2 = c (r^2 - 1) by definition
    assert rescale_map(CONIC, F(3)).rho_sq == CONIC.c * 8


def test_rescale_map_domain():
    with pytest.raises(DomainError):
        rescale_map(CONIC, F(1))


def test_rho1_limit():
    lim = rho1_limit(1)
    assert lim.derived_sq == F(2, 3)
    assert lim.paper_sq == F(4, 3)
    assert lim.samples == (F(2, 3), F(2, 3), F(2, 3))
    assert lim.paper == pytest.approx(2 / math.sqrt(3))
    for n in (2, 3):
        assert rho1_limit(n).derived_sq == F(2, 2 * n + 1)
        assert rho1_limit(n).paper_sq == F(4, 2 * n + 1)


def test_rho1_limit_rejects_any_t_dependence(monkeypatch, capsys):
    import pelab.limits as limits
    from pelab.cli import main

    exact = limits.smooth_c
    # c_t (1 + t^2) spreads the three samples by about 1e-8 relative, which a
    # 1e-6 extrapolation tolerance would accept; the exact check must not
    monkeypatch.setattr(limits, "smooth_c", lambda n, lam, Lambda, r1: exact(n, lam, Lambda, r1) * (1 + (r1 - 1) ** 2))
    with pytest.raises(AuditMismatch):
        rho1_limit(1)
    assert main(["limit", "--n", "1"]) == 3
    assert capsys.readouterr().err.startswith("audit mismatch: rho1^2")


def test_limit_smoothness_lam2():
    # alpha = 1 exactly for lam = 2, independent of n and rho1
    for n, rho1_sq in [(1, F(4, 3)), (1, F(2, 3)), (3, F(7, 5)), (2, F(1, 9))]:
        report = limit_smoothness(rescaled_profile(n, 2, rho1_sq))
        assert report.alpha_infinity == 1


def test_limit_smoothness_block():
    prof = rescaled_profile(1, 2, F(2, 3))
    report = limit_smoothness(prof)
    # leading block 2 rho1 (ds^2 + s^2 theta^2) + rho1^2 ghat
    assert report.ds2_coeff == pytest.approx(2 * prof.rho1, rel=1e-15)
    assert report.theta_s2_coeff == pytest.approx(2 * prof.rho1, rel=1e-15)
    assert report.base_coeff_sq == F(2, 3)


@given(
    n=st.integers(min_value=1, max_value=5),
    rho1_sq=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
)
def test_limit_smoothness_property(n, rho1_sq):
    assert limit_smoothness(rescaled_profile(n, 2, rho1_sq)).alpha_infinity == 1


def test_limit_smoothness_general_lam():
    assert limit_smoothness(rescaled_profile(1, 4, F(1))).alpha_infinity == 2
    with pytest.raises(ValueError):
        limit_smoothness(rescaled_profile(1, 2, 0))


def test_flat_recovery():
    params, profile = flat_recovery(1)
    assert params == HYPERBOLIC
    assert profile.as_laurent() == LaurentPoly.constant(1)
    assert profile.rho1_sq == 0
    # U = 1 solves the generalised profile ODE with lam = 2n+2
    assert profile_ode_residual(profile, [F(1), F(2)]) == 0


def _default_grid():
    rho1 = math.sqrt(2 / 3)
    return [F(repr(round(rho1 * (1.2 + 1.8 * j / 24), 9))) for j in range(25)]


def test_limit_comparison():
    comparison = limit_comparison(1, [F(1, 10), F(1, 100), F(1, 1000)], _default_grid())
    sups = comparison.sup_deviations
    for key in ("dev_drho2", "dev_theta2"):
        values = sups[key]
        assert values[0] > values[1] > values[2] > 0
    assert all(v == 0 for v in sups["dev_base"])
    # convergence is first order in t; the 3-point fit is slightly depressed
    # by the pre-asymptotic t = 0.1 sample (recorded, not asserted at 1)
    assert comparison.fitted_orders["dev_drho2"] > 0.7
    assert comparison.fitted_orders["dev_theta2"] > 0.7
    assert comparison.fitted_orders["dev_base"] is None
    assert comparison.rho1_sq_derived == F(2, 3)
    assert comparison.rho1_sq_paper == F(4, 3)
    summary = comparison.summary()
    assert summary["rho1_derived"] == pytest.approx(math.sqrt(2 / 3))
    assert summary["rho1_paper"] == pytest.approx(math.sqrt(4 / 3))
    assert summary["theta_identity_exact"] is True


def rescaled_member(n, t):
    """The lam = 2 smooth-cone member at r1 = 1 + t after (c, Lambda) -> (c/t, t Lambda)."""
    base = FamilyParams(n=n, lam=F(2), c=smooth_c(n, 2, -(2 * n + 1), 1 + t), Lambda=F(-(2 * n + 1)), r1=1 + t)
    return scaling_action(base, 1 / t)


# The summary's "theta_identity_exact": c'^2 P (r^2-1)^-n equals
# [C P / (r^2-1)^(n+1)] [C (r^2-1)] = U_t rho^2 with C = c', exactly.
@given(n=st.integers(min_value=1, max_value=10), t=st.fractions(min_value=F(1, 10**6), max_value=1, max_denominator=10**6))
def test_theta_coefficient_identity(n, t):
    scaled = rescaled_member(n, t)
    p = solve_profile(scaled)
    assert metric_coefficients(scaled, p).b == LaurentQuotient(scaled.c**2 * p * _r2m1(1), _r2m1(n + 1))


def _decimal(x):
    return Decimal(x.numerator) / Decimal(x.denominator)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_limit_comparison_matches_a_200_digit_reference(n):
    # every deviation, recomputed in 200-digit decimals with P(r) summed term by
    # term at r = sqrt(s), is within a few units in the last place of the row
    ts = [F(1, 10), F(1, 100), F(1, 1000), F(1, 10**7), F(1, 10**20)]
    grid = _default_rho_grid(n)
    rows = iter(limit_comparison(n, ts, grid).rows)
    u_inf_poly = rescaled_profile(n, 2, rho1_limit(n).derived_sq).as_laurent()
    with localcontext() as ctx:
        ctx.prec = 200
        for t in ts:
            scaled = rescaled_member(n, t)
            p = solve_profile(scaled)
            for rho in grid:
                w = rho**2 / scaled.c
                r = (1 + _decimal(w)).sqrt()
                u_t = _decimal(scaled.c) * sum(_decimal(c) * r**e for e, c in p.items()) / _decimal(w) ** (n + 1)
                u_inf = _decimal(u_inf_poly(rho))
                dev_drho2 = abs(1 / (u_t * r * r) - 1 / u_inf)
                dev_theta2 = abs(u_t - u_inf) * _decimal(rho**2)
                row = next(rows)
                assert row[:2] == (t, rho)
                for got, want in zip(row[2:4], (dev_drho2, dev_theta2)):
                    assert abs(Decimal(got) - want) <= Decimal("2e-15") * want, (t, rho, got, want)


def test_limit_comparison_domain_error():
    with pytest.raises(DomainError):
        limit_comparison(1, [F(1, 10)], [F(1, 2)])
    # rho^2 lies above the inner radius, but rho itself is negative
    with pytest.raises(DomainError, match="rho = -2 is below"):
        limit_comparison(1, [F(1, 10)], [F(-2), F(2)])


def test_limit_comparison_validates_t():
    with pytest.raises(ValueError):
        limit_comparison(1, [F(1, 100), F(1, 10)], _default_grid())
    with pytest.raises(ValueError):
        limit_comparison(1, [F(1, 10), F(1, 10)], _default_grid())
    with pytest.raises(ValueError):
        limit_comparison(1, [], _default_grid())
