"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from oracles import curvature_at, fd_oracle, scaled_chart, sectional
from pelab.audits import run_audits
from pelab.family import (
    FamilyParams,
    _r2m1,
    cone_angle,
    cone_angle_conic_limit,
    cpn_catalogue,
    scaling_action,
    smooth_c,
    smooth_c_printed,
    smooth_cone_member,
    solve_profile,
)
from pelab.geom import curvature_reports, page_pope_chart, rescaled_chart
from pelab.laurent import LaurentPoly
from pelab.limits import RescaledProfile, limit_comparison, rho1_limit


def criterion(num, description):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


def _random_rational(rng, lo, hi, den=4):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _random_params(rng, n_max=4):
    return FamilyParams(
        n=rng.randint(1, n_max),
        lam=_random_rational(rng, 1, 8),
        c=_random_rational(rng, 1, 6),
        Lambda=-_random_rational(rng, 1, 6),
        r1=1 + (_random_rational(rng, 1, 8) if rng.random() < 0.8 else 0),
    )


def _chart_point(rng, r_low, r_high):
    disk = 0.9 * math.sqrt(rng.uniform(0, 1))
    ang = rng.uniform(0, 2 * math.pi)
    return (rng.uniform(r_low, r_high), rng.uniform(0.1, 6.1), disk * math.cos(ang), disk * math.sin(ang))


@criterion(1, "exact profile ODE identity for 100 random tuples in < 5 s")
def test_criterion_01_exact_ode_identity():
    start = time.perf_counter()
    rng = random.Random(101)
    r_inv = LaurentPoly.term(1, -1)
    for _ in range(100):
        params = _random_params(rng, n_max=4)
        p = solve_profile(params)
        rhs = LaurentPoly.term(1, -2) * (params.abs_Lambda * _r2m1(params.n + 1) + params.lam / params.c * _r2m1(params.n))
        assert (r_inv * p).derivative() - rhs == LaurentPoly()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(2, "closed-form profile fixtures, exact equality")
def test_criterion_02_closed_form_fixtures():
    hyp = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
    assert solve_profile(hyp) == LaurentPoly({2: 1, 0: -1}) ** 2
    con = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1))
    assert solve_profile(con) == LaurentPoly({4: 1, 1: -4, 0: 3})


@criterion(3, "Einstein residual <= 1e-6 for 25 random n=1 tuples x 20 points in < 60 s")
def test_criterion_03_einstein_verification():
    start = time.perf_counter()
    rng = random.Random(103)
    worst = 0.0
    for _ in range(25):
        params = _random_params(rng, n_max=1)
        chart = page_pope_chart(params)
        lam = float(params.Lambda)
        r1f = float(params.r1)
        for _ in range(20):
            pt = _chart_point(rng, r1f + 0.1, 10.0)
            worst = max(worst, curvature_at(chart, pt, lam=lam).einstein_residual)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst residual {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


@criterion(4, "hyperbolic recovery: sectional = -1 within 1e-6, 50 planes at 10 points")
def test_criterion_04_hyperbolic_sectional():
    chart = page_pope_chart(FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1)))
    rng = random.Random(104)
    for _ in range(10):
        pt = _chart_point(rng, 1.1, 9.0)
        for _ in range(5):
            x = [rng.gauss(0, 1) for _ in range(4)]
            y = [rng.gauss(0, 1) for _ in range(4)]
            assert abs(sectional(chart, pt, x, y) + 1.0) <= 1e-6


@criterion(5, "flat recovery: |Riemann| <= 1e-12 at 20 random points of the U=1 chart")
def test_criterion_05_flat_recovery():
    chart = rescaled_chart(RescaledProfile(1, 4, 0))
    rng = random.Random(105)
    for _ in range(20):
        pt = _chart_point(rng, 0.5, 3.0)
        assert np.max(np.abs(curvature_at(chart, pt).riemann)) <= 1e-12


@criterion(6, "Ricci-flat limit: residual(Lambda=0) <= 1e-6 at 20 points")
def test_criterion_06_ricci_flat_limit():
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    rho1 = profile.rho1
    rng = random.Random(106)
    for _ in range(20):
        pt = _chart_point(rng, 1.1 * rho1, 5.0 * rho1)
        assert curvature_at(chart, pt, lam=0.0).einstein_residual <= 1e-6


@criterion(7, "cone-angle endpoints lam/2 and n+1, monotone for the k=1 catalogue")
def test_criterion_07_cone_angle_endpoints():
    # alpha at r1 = 1 + 1e-9 is within 1e-6 of lam/2, exactly evaluated
    for n, lam, c, Lam in [(1, F(2), F(1, 3), F(-3)), (2, F(3), F(1, 2), F(-5)), (1, F(4), F(1), F(-3))]:
        params = FamilyParams(n=n, lam=lam, c=c, Lambda=Lam, r1=1 + F(1, 10**9))
        assert abs(cone_angle(params) - lam / 2) <= F(1, 10**6)
    # the conic continuation of the k=1 catalogue is n+1
    for n in (1, 2, 3):
        assert cone_angle_conic_limit(cpn_catalogue(n, 1)) == n + 1
        # alpha = (c|Lambda|/2) r1 + (lam - c|Lambda|)/(2 r1) as a Laurent polynomial in r1 (c|Lambda| = 2n+1,
        # lam = 2n+2); exact derivative sign: (2n+1)/2 - 1/(2 r1^2) > 0 on r1 >= 1
        alpha_of_r1 = LaurentPoly({1: F(2 * n + 1, 2), -1: F(1, 2)})
        slope = alpha_of_r1.derivative()
        for i in range(100):
            assert slope(1 + F(i, 10)) > 0
        # 100-point strictly increasing sweep
        previous = None
        for i in range(100):
            alpha = cone_angle(cpn_catalogue(n, 1, r1=1 + F(i + 1, 10)))
            assert alpha == alpha_of_r1(1 + F(i + 1, 10))
            assert previous is None or alpha > previous
            previous = alpha


@criterion(8, "smooth-cone round trip: cone angle exactly 1 for 50 random tuples")
def test_criterion_08_smooth_c_round_trip():
    rng = random.Random(108)
    for _ in range(50):
        n = rng.randint(1, 4)
        r1 = 1 + F(rng.randint(1, 12), rng.randint(1, 4))
        lam = 2 * r1 * F(rng.randint(1, 9), 10)
        Lambda = -F(rng.randint(1, 7), rng.randint(1, 3))
        c = smooth_c(n, lam, Lambda, r1)
        assert cone_angle(FamilyParams(n=n, lam=lam, c=c, Lambda=Lambda, r1=r1)) == 1


@criterion(9, "audit reproduces the four discrepancies with exact arbiters")
def test_criterion_09_formula_audit():
    rows = run_audits()
    quantities = [row.quantity for row in rows]
    for expected in ("beta_sq", "smooth-cone c", "conic base", "rho1^2"):
        assert any(expected in q for q in quantities), f"missing audit row {expected}"
    for row in rows:
        assert row.derived == row.oracle, row
        assert row.printed != row.oracle, row
    # printed smooth-cone candidate concretely fails the alpha = 1 identity
    printed = smooth_c_printed(1, F(2), F(1))
    alpha_printed = cone_angle(FamilyParams(n=1, lam=F(2), c=printed, Lambda=F(-3), r1=F(2)))
    assert alpha_printed != 1
    # printed rho1^2 fails the exact inner-radius identity the derived value satisfies
    t = F(1, 100)
    inner = smooth_cone_member(1, t).c * (t + 2)
    assert inner == rho1_limit(1).derived_sq
    assert inner != rho1_limit(1).paper_sq


@criterion(10, "limit comparison: sup deviations decrease, theta identity exact")
def test_criterion_10_limit_comparison():
    rho1 = math.sqrt(2 / 3)
    grid = [F(repr(round(rho1 * (1.2 + 1.8 * j / 24), 9))) for j in range(25)]
    ts = [F(1, 10), F(1, 100), F(1, 1000)]
    comparison = limit_comparison(1, ts, grid)
    # theta^2 coefficient c^2 P/W of the rescaled member (W = r^2-1 at n = 1) == U_t rho^2 = c^2 P W/W^2,
    # as exact rational functions of r: the two quotients cross-multiply to the same polynomial
    r2m1 = LaurentPoly({2: 1, 0: -1})
    for t in ts:
        scaled = scaling_action(smooth_cone_member(1, t), 1 / t)
        p = solve_profile(scaled)
        assert scaled.c**2 * p * r2m1**2 == scaled.c**2 * p * r2m1 * r2m1
    for key in ("dev_drho2", "dev_theta2"):
        sups = comparison.sup_deviations[key]
        assert sups[0] > sups[1] > sups[2]
    # the ghat coefficient deviation is exactly zero at every t
    assert all(v == 0 for v in comparison.sup_deviations["dev_base"])


@criterion(11, "PE normalisation: sectional -> -1 monotonically, < 1e-3 at r = 250")
def test_criterion_11_sectional_asymptotics():
    params = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1))
    chart = scaled_chart(page_pope_chart(params), float(params.abs_Lambda) / 3.0)
    rng = random.Random(111)
    worst = []
    for r in (10.0, 50.0, 250.0):
        devs = []
        for _ in range(8):
            pt = (r, 1.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            x = [rng.gauss(0, 1) for _ in range(4)]
            y = [rng.gauss(0, 1) for _ in range(4)]
            devs.append(abs(sectional(chart, pt, x, y) + 1.0))
        worst.append(max(devs))
    assert worst[0] > worst[1] > worst[2], f"not monotone: {worst}"
    assert worst[2] < 1e-3, f"deviation at r=250 is {worst[2]:.3e}"


@criterion(12, "cross-scheme: jet (one 50-point batch per chart) and finite-difference curvature within 1e-5")
def test_criterion_12_cross_scheme():
    rng = random.Random(112)
    charts = [
        (page_pope_chart(FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))), 1.2),
        (page_pope_chart(FamilyParams(n=1, lam=F(2), c=F(2, 9), Lambda=F(-3), r1=F(2))), 2.2),
    ]
    for chart, r_low in charts:
        pts = [_chart_point(rng, r_low, 6.0) for _ in range(50)]
        batch = curvature_reports(chart, pts)
        for i, pt in enumerate(pts):
            jet_riemann, jet_christoffel = batch.riemann[..., i], batch.christoffel[..., i]
            fd = fd_oracle(chart, pt)
            scale = np.max(np.abs(jet_riemann))
            assert np.max(np.abs(jet_riemann - fd.riemann)) / scale < 1e-5
            gscale = np.max(np.abs(jet_christoffel))
            assert np.max(np.abs(jet_christoffel - fd.christoffel)) / gscale < 1e-5
