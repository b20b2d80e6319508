"""Curvature engine: charts, Einstein residuals, cross-scheme agreement."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from pelab.family import FamilyParams, smooth_c
from pelab.geom import (
    ChartMetric,
    DegeneratePlane,
    SingularMetric,
    StepTooLarge,
    UnsupportedDimension,
    christoffel,
    connection_curvature_residual,
    curvature_report,
    einstein_residual,
    euclidean_chart,
    fd_oracle,
    is_positive_definite,
    page_pope_chart,
    rescaled_chart,
    riemann,
    scaled_chart,
    sectional,
    sphere_chart,
    uv_inverted_chart,
)
from pelab.limits import rescaled_profile, rho1_limit

HYPERBOLIC = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
EDGE_SMOOTH = FamilyParams(n=1, lam=F(2), c=F(2, 9), Lambda=F(-3), r1=F(2))
HYP_POINT = (1.7, 0.4, 0.2, 0.1)


def sample_point(rng, r_low, r_high):
    disk = 0.9 * math.sqrt(rng.uniform(0, 1))
    ang = rng.uniform(0, 2 * math.pi)
    return (rng.uniform(r_low, r_high), rng.uniform(0.1, 6.1), disk * math.cos(ang), disk * math.sin(ang))


def test_euclidean_flat():
    chart = euclidean_chart(4)
    rep = curvature_report(chart, (0.3, -1.2, 0.4, 2.0), lam=0.0)
    assert np.max(np.abs(rep.riemann)) == 0.0
    assert np.max(np.abs(rep.christoffel)) == 0.0
    assert rep.einstein_residual == 0.0


def test_sphere_einstein_and_sectional():
    # Ric(ghat) = lam ghat validates the chart normalisation
    for lam in (1.0, 2.0, 4.0):
        chart = sphere_chart(lam)
        for pt in [(0.0, 0.0), (0.3, -0.2), (0.8, 0.5)]:
            assert einstein_residual(chart, lam, pt) < 1e-12
            assert sectional(chart, pt, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(lam, rel=1e-10)


def test_scalar_is_trace_of_ricci():
    chart = page_pope_chart(HYPERBOLIC)
    rep = curvature_report(chart, HYP_POINT)
    trace = float(np.einsum("ij,ij->", np.linalg.inv(rep.metric), rep.ricci))
    assert rep.scalar == pytest.approx(trace, rel=1e-10)
    assert rep.scalar == pytest.approx(-12.0, rel=1e-10)  # trace of Ric = -3g in dim 4


def test_christoffel_symmetry_and_fd_agreement():
    chart = page_pope_chart(HYPERBOLIC)
    gamma = christoffel(chart, HYP_POINT)
    assert np.allclose(gamma, np.einsum("kij->kji", gamma), atol=1e-14)
    fd = fd_oracle(chart, HYP_POINT)
    assert np.max(np.abs(gamma - fd.christoffel)) / np.max(np.abs(gamma)) < 1e-5


def test_connection_potential_solves_curvature_equation():
    # dA + 2 omega = 0 at 50 random points, by jet exterior differentiation
    rng = random.Random(2)
    for _ in range(50):
        u, v = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        lam = rng.choice([1.0, 2.0, 4.0, 6.0])
        assert connection_curvature_residual(lam, u, v) < 1e-10


def test_metric_positive_definite():
    rng = random.Random(4)
    chart = page_pope_chart(EDGE_SMOOTH)
    for _ in range(100):
        assert is_positive_definite(chart, sample_point(rng, 2.1, 9.0))


def test_hyperbolic_einstein_and_sectional():
    chart = page_pope_chart(HYPERBOLIC)
    rng = random.Random(8)
    for _ in range(10):
        pt = sample_point(rng, 1.1, 9.0)
        assert einstein_residual(chart, -3.0, pt) < 1e-6
        x = [rng.gauss(0, 1) for _ in range(4)]
        y = [rng.gauss(0, 1) for _ in range(4)]
        assert sectional(chart, pt, x, y) == pytest.approx(-1.0, abs=1e-6)


def test_einstein_random_family_members():
    rng = random.Random(15)
    for _ in range(5):
        params = FamilyParams(
            n=1,
            lam=F(rng.randint(1, 8), rng.randint(1, 3)),
            c=F(rng.randint(1, 6), rng.randint(1, 4)),
            Lambda=-F(rng.randint(1, 6), rng.randint(1, 3)),
            r1=1 + F(rng.randint(0, 6), 4),
        )
        chart = page_pope_chart(params)
        pt = sample_point(rng, float(params.r1) + 0.2, 8.0)
        assert einstein_residual(chart, float(params.Lambda), pt) < 1e-6


def test_rescaled_chart_flat():
    chart = rescaled_chart(rescaled_profile(1, 4, 0))
    rng = random.Random(16)
    for _ in range(10):
        pt = sample_point(rng, 0.5, 3.0)
        assert np.max(np.abs(riemann(chart, pt))) < 1e-12


def test_rescaled_chart_ricci_flat():
    profile = rescaled_profile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    rho1 = profile.rho1
    rng = random.Random(17)
    for _ in range(10):
        pt = sample_point(rng, 1.1 * rho1, 5.0 * rho1)
        assert einstein_residual(chart, 0.0, pt) < 1e-6
    # both circulating rho1 values give a Ricci-flat metric
    chart_paper = rescaled_chart(rescaled_profile(1, 2, rho1_limit(1).paper_sq))
    assert einstein_residual(chart_paper, 0.0, (2.0, 1.0, 0.2, -0.1)) < 1e-6


def test_rescaled_chart_finite_positive():
    profile = rescaled_profile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    pt = (2.0 * profile.rho1, 1.0, 0.3, -0.2)
    values = chart.metric_values(pt)
    assert np.all(np.isfinite(values))
    assert is_positive_definite(chart, pt)


def test_fd_oracle_agreement_two_charts():
    rng = random.Random(19)
    for chart, r_low in ((page_pope_chart(HYPERBOLIC), 1.2), (page_pope_chart(EDGE_SMOOTH), 2.2)):
        for _ in range(5):
            pt = sample_point(rng, r_low, 6.0)
            jet = curvature_report(chart, pt)
            fd = fd_oracle(chart, pt)
            scale = np.max(np.abs(jet.riemann))
            assert np.max(np.abs(jet.riemann - fd.riemann)) / scale < 1e-5


def test_fd_oracle_edge_params_at_r3():
    chart = page_pope_chart(EDGE_SMOOTH)
    pt = (3.0, 1.2, 0.3, -0.2)
    jet = curvature_report(chart, pt)
    fd = fd_oracle(chart, pt)
    assert np.max(np.abs(jet.riemann - fd.riemann)) / np.max(np.abs(jet.riemann)) < 1e-5


def test_fd_oracle_flat_both_paths():
    chart = euclidean_chart(3)
    pt = (0.1, 0.2, 0.3)
    assert np.max(np.abs(curvature_report(chart, pt).riemann)) < 1e-15
    assert np.max(np.abs(fd_oracle(chart, pt).riemann)) < 1e-9


def test_fd_step_too_large_near_boundary():
    chart = page_pope_chart(HYPERBOLIC)
    with pytest.raises(StepTooLarge):
        fd_oracle(chart, (1.005, 1.0, 0.0, 0.0), step=1e-3)


def test_chart_domain_checks():
    chart = page_pope_chart(EDGE_SMOOTH)
    assert not chart.in_domain((1.5, 1.0, 0.0, 0.0))
    assert not chart.in_domain((3.0, 1.0, 0.8, 0.7))
    with pytest.raises(ValueError):
        curvature_report(chart, (1.5, 1.0, 0.0, 0.0))


def test_christoffel_checks_the_domain():
    with pytest.raises(ValueError, match="outside chart domain"):
        christoffel(page_pope_chart(EDGE_SMOOTH), (1.5, 1.0, 0.0, 0.0))


def test_unsupported_dimension():
    params = FamilyParams(n=2, lam=F(2), c=F(1), Lambda=F(-5), r1=F(1))
    with pytest.raises(UnsupportedDimension):
        page_pope_chart(params)
    with pytest.raises(UnsupportedDimension):
        rescaled_chart(rescaled_profile(2, 2, F(1, 2)))


def test_singular_metric():
    nearly_singular = ChartMetric(
        2, ("x", "y"), lambda p: [[1.0, 0.0], [0.0, 1e-13]], lambda p: True
    )
    with pytest.raises(SingularMetric):
        curvature_report(nearly_singular, (0.0, 0.0))


def test_degenerate_plane():
    chart = euclidean_chart(4)
    with pytest.raises(DegeneratePlane):
        sectional(chart, (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))


def test_sectional_flat_zero():
    chart = euclidean_chart(4)
    assert sectional(chart, (0.0, 0.0, 0.0, 0.0), (1.0, 0.2, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0)) == 0.0


def test_chart_invariance_under_uv_inversion():
    # same geometric point, residual agrees between the chart and its inversion
    base = page_pope_chart(HYPERBOLIC)
    inv = uv_inverted_chart(base)
    u, v = 0.2, 0.1
    q = u * u + v * v
    r1 = einstein_residual(base, -3.0, (1.7, 0.4, u, v))
    r2 = einstein_residual(inv, -3.0, (1.7, 0.4, u / q, v / q))
    assert abs(r1 - r2) < 1e-6
    assert curvature_report(inv, (1.7, 0.4, u / q, v / q)).scalar == pytest.approx(-12.0, rel=1e-9)


def test_uv_inverted_metric_is_the_pullback():
    # independent route: J^T M J with the numpy Jacobian (Q I - 2 w w^T)/Q^2 of w -> w/Q
    rng = random.Random(31)
    for params in (HYPERBOLIC, EDGE_SMOOTH):
        base = page_pope_chart(params)
        inv = uv_inverted_chart(base)
        for _ in range(6):
            x0, x1, u, v = sample_point(rng, float(params.r1) + 0.1, 9.0)
            q = u * u + v * v
            w = np.array([u / q, v / q])
            big_q = float(w @ w)
            jac = np.eye(4)
            jac[2:, 2:] = (big_q * np.eye(2) - 2.0 * np.outer(w, w)) / big_q**2
            expected = jac.T @ base.metric_values((x0, x1, w[0] / big_q, w[1] / big_q)) @ jac
            got = inv.metric_values((x0, x1, *w))
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_sectional_approaches_minus_one():
    # PE normalisation: (|Lambda|/(2n+1)) g has curvature -> -1 at infinity
    params = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1))
    chart = scaled_chart(page_pope_chart(params), 3.0 / 3.0)
    rng = random.Random(23)
    worst = []
    for r in (10.0, 50.0, 250.0):
        devs = []
        for _ in range(5):
            pt = (r, 1.0, 0.3, -0.2)
            x = [rng.gauss(0, 1) for _ in range(4)]
            y = [rng.gauss(0, 1) for _ in range(4)]
            devs.append(abs(sectional(chart, pt, x, y) + 1.0))
        worst.append(max(devs))
    assert worst[0] > worst[1] > worst[2]
    assert worst[2] < 1e-3


def test_bianchi_and_symmetries_enforced():
    rep = curvature_report(page_pope_chart(EDGE_SMOOTH), (3.0, 1.2, 0.3, -0.2))
    assert rep.symmetry_max < 1e-8
    assert rep.bianchi_max < 1e-8
