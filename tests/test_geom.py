"""Curvature engine: charts, Einstein residuals, cross-scheme agreement."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from oracles import (
    DegeneratePlane,
    StepTooLarge,
    connection_curvature_residual,
    curvature_at,
    euclidean_chart,
    exact_page_pope_chart,
    fd_oracle,
    fractions,
    is_positive_definite,
    kaehler_defects,
    metric_values,
    scaled_chart,
    sectional,
    sphere_chart,
    uv_inverted_chart,
)
from pelab.cmd_verify import _sample_points
from pelab.family import FamilyParams, cpn_catalogue, scaling_action, smooth_cone_member
from pelab.geom import (
    ChartMetric,
    CurvatureCheckError,
    CurvatureReport,
    SingularMetric,
    UnsupportedDimension,
    curvature_reports,
    page_pope_block,
    page_pope_chart,
    point_scalars,
    rescaled_chart,
)
from pelab.limits import RescaledProfile, rho1_limit

HYPERBOLIC = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
EDGE_SMOOTH = FamilyParams(n=1, lam=F(2), c=F(2, 9), Lambda=F(-3), r1=F(2))
HYP_POINT = (1.7, 0.4, 0.2, 0.1)


def sample_point(rng, r_low, r_high):
    disk = 0.9 * math.sqrt(rng.uniform(0, 1))
    ang = rng.uniform(0, 2 * math.pi)
    return (rng.uniform(r_low, r_high), rng.uniform(0.1, 6.1), disk * math.cos(ang), disk * math.sin(ang))


def test_euclidean_flat():
    chart = euclidean_chart(4)
    rep = curvature_at(chart, (0.3, -1.2, 0.4, 2.0), lam=0.0)
    assert np.max(np.abs(rep.riemann)) == 0.0
    assert np.max(np.abs(rep.christoffel)) == 0.0
    assert rep.einstein_residual == 0.0


def test_sphere_einstein_and_sectional():
    # Ric(ghat) = lam ghat validates the chart normalisation
    for lam in (1.0, 2.0, 4.0):
        chart = sphere_chart(lam)
        for pt in [(0.0, 0.0), (0.3, -0.2), (0.8, 0.5)]:
            assert curvature_at(chart, pt, lam=lam).einstein_residual < 1e-12
            assert sectional(chart, pt, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(lam, rel=1e-10)


def test_scalar_is_trace_of_ricci():
    chart = page_pope_chart(HYPERBOLIC)
    rep = curvature_at(chart, HYP_POINT)
    trace = float(np.einsum("ij,ij->", np.linalg.inv(rep.metric), rep.ricci))
    assert rep.scalar == pytest.approx(trace, rel=1e-10)
    assert rep.scalar == pytest.approx(-12.0, rel=1e-10)  # trace of Ric = -3g in dim 4


def test_christoffel_symmetry_and_fd_agreement():
    chart = page_pope_chart(HYPERBOLIC)
    gamma = curvature_at(chart, HYP_POINT).christoffel
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


def test_connection_residual_measures_a_wrong_potential(monkeypatch):
    # with A doubled, dA = -4 omega and the residual |dA + 2 omega| is 2h
    base_blocks = oracles._base_blocks

    def doubled(lam, u, v):
        h, a_u, a_v = base_blocks(lam, u, v)
        return h, 2 * a_u, 2 * a_v

    monkeypatch.setattr(oracles, "_base_blocks", doubled)
    two_h = 2 * (4.0 / 2.0) / (1.0 + 0.3**2 + 0.2**2) ** 2
    assert two_h == pytest.approx(3.13259, abs=1e-5)
    assert connection_curvature_residual(2.0, 0.3, -0.2) == pytest.approx(two_h, rel=1e-12)


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
        assert curvature_at(chart, pt, lam=-3.0).einstein_residual < 1e-6
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
        assert curvature_at(chart, pt, lam=float(params.Lambda)).einstein_residual < 1e-6


def test_rescaled_chart_flat():
    chart = rescaled_chart(RescaledProfile(1, 4, 0))
    rng = random.Random(16)
    for _ in range(10):
        pt = sample_point(rng, 0.5, 3.0)
        assert np.max(np.abs(curvature_at(chart, pt).riemann)) < 1e-12


def test_rescaled_chart_ricci_flat():
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    rho1 = profile.rho1
    rng = random.Random(17)
    for _ in range(10):
        pt = sample_point(rng, 1.1 * rho1, 5.0 * rho1)
        assert curvature_at(chart, pt, lam=0.0).einstein_residual < 1e-6
    # both circulating rho1 values give a Ricci-flat metric
    chart_paper = rescaled_chart(RescaledProfile(1, 2, rho1_limit(1).paper_sq))
    assert curvature_at(chart_paper, (2.0, 1.0, 0.2, -0.1), lam=0.0).einstein_residual < 1e-6


def _kretschmann(rep):
    """R_ijkl R^ijkl of every point of a batch report, indices raised with the inverse metric."""
    ginv = np.linalg.inv(np.moveaxis(rep.metric, -1, 0))
    raised = np.einsum("abcdn,nia,njb,nkc,nld->ijkln", rep.riemann, ginv, ginv, ginv, ginv, optimize=True)
    return np.einsum("ijkln,ijkln->n", rep.riemann, raised)


def test_a_chart_that_reads_no_coordinate_is_flat():
    # a constant metric seeds no jets: reads=() must still index dG and ddG as integers
    chart = ChartMetric(("w", "x", "y", "z"), lambda p: np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), lambda p: True, reads=())
    columns = point_scalars(chart, _sample_points(0, 5, 1.0, 2.0), 0.0)
    assert columns[:, :2].tolist() == [[0.0, 0.0]] * 5  # einstein_residual and scalar at Lambda = 0


def _relative_spread(values):
    return (values.max() - values.min()) / np.abs(values).max()


# The isometries of the family act transitively on each level set of the
# radial coordinate, so every curvature invariant is a function of it
# alone: at fixed r, 64 seeded (psi, u, v) must give one value.  This
# reference uses no Lambda, no Einstein tolerance and no FD step.  The
# measured relative spreads are at most 1.4e-14 (page-pope scalar and
# Kretschmann) and 8.4e-15 (rescaled Kretschmann up to 2 rho1; it grows to
# 2.4e-13 at 4.5 rho1 as the invariant falls towards 0), so 1e-12 leaves a
# margin of 70 over rounding, while a connection form off by one part in
# 1e3 (dA != -2 omega) spreads the page-pope scalar by 6e-6 or more.
INVARIANCE_BOUND = 1e-12


@pytest.mark.parametrize("k, r1", [(2, F(1)), (1, F(5, 2)), (3, F(7, 3))], ids=["conic", "edge-k1", "edge-k3"])
def test_page_pope_invariants_depend_on_r_alone(k, r1):
    chart = page_pope_chart(cpn_catalogue(1, k, r1))
    for seed, r in enumerate((float(r1) + 0.1, float(r1) + 1.5, float(r1) + 6.5, 100.0)):
        points = _sample_points(seed, 64, 1.0, 2.0)
        points[:, 0] = r
        rep = curvature_reports(chart, points)
        assert _relative_spread(rep.scalar) < INVARIANCE_BOUND, r
        assert _relative_spread(_kretschmann(rep)) < INVARIANCE_BOUND, r


def test_rescaled_kretschmann_depends_on_rho_alone():
    # the scalar is 0 up to rounding on this Ricci-flat chart, so its spread checks nothing
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    for seed, factor in enumerate((1.05, 1.2, 1.5, 2.0)):
        points = _sample_points(seed, 64, 1.0, 2.0)
        points[:, 0] = factor * profile.rho1
        assert _relative_spread(_kretschmann(curvature_reports(chart, points))) < INVARIANCE_BOUND, factor


# The rescaled limit is Kaehler (the paper's abstract): omega = rho^2
# omega_hat - rho drho ^ theta is parallel and J = g^-1 omega squares to
# -1.  Kaehlerness does not depend on U, so this checks the connection form
# and the orientation of the chart; criterion 9 checks U.  Both defects
# measure at most 1.1e-15 on 200 seeded points for either rho1^2; the
# rescaled base coefficient rho^2 scaled by 1.001 gives |nabla omega| 1e-3.
KAEHLER_BOUND = 1e-12


@pytest.mark.parametrize("which", ["derived", "paper"])
def test_rescaled_limit_is_kaehler(which):
    profile = RescaledProfile(1, 2, getattr(rho1_limit(1), f"{which}_sq"))
    points = _sample_points(0, 200, profile.rho1 + 0.05, 8.0)
    nabla_omega, j_squared = kaehler_defects(rescaled_chart(profile), points, float(profile.lam))
    assert nabla_omega.max() <= KAEHLER_BOUND
    assert j_squared.max() <= KAEHLER_BOUND


# t^-1 g_t approaches that Kaehler limit: on the smooth-cone members
# (lambda = 2, r1 = 1 + t, c = smooth_c) rescaled by (c, Lambda) -> (c/t, t
# Lambda), omega = c W omega_hat - c dr ^ theta squares to -1 and
# d omega = 2 c (r - 1) dr ^ omega_hat, which is O(t) at fixed rho.  The
# points span rho in (1.1 rho1, 4).  Measured on 200 seeded points: defects
# 0.0407 at t = 1e-3 and 0.00411 at t = 1e-4, and the ratio of the two lies
# in [9.899, 9.901] for seeds 0-29; |J^2 + 1| is at most 8.4e-13.
APPROACH_RATIO = (9.8, 10.0)


def _rescaled_member_defects(t):
    member = scaling_action(smooth_cone_member(1, t), 1 / t)
    c = float(member.c)  # rho^2 = c (r^2 - 1), and rho1^2 = c (r1^2 - 1)
    points = _sample_points(0, 200, math.sqrt(1 + 1.21 * float(member.r1**2 - 1)), math.sqrt(1 + 16 / c))
    # the fibre coefficient c as a jet with zero derivatives
    return kaehler_defects(page_pope_chart(member), points, 2.0, lambda r: (c * (r * r - 1), c + 0 * r))


def test_rescaled_members_approach_a_kaehler_metric():
    coarse, coarse_j = _rescaled_member_defects(F(1, 10**3))
    fine, fine_j = _rescaled_member_defects(F(1, 10**4))
    assert coarse.max() < 0.1 and fine.max() < 0.01
    assert APPROACH_RATIO[0] <= coarse.max() / fine.max() <= APPROACH_RATIO[1]
    assert max(coarse_j.max(), fine_j.max()) <= 1e-11


def test_rescaled_chart_finite_positive():
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    pt = (2.0 * profile.rho1, 1.0, 0.3, -0.2)
    values = metric_values(chart, pt)
    assert np.all(np.isfinite(values))
    assert is_positive_definite(chart, pt)


def test_fd_oracle_agreement_two_charts():
    rng = random.Random(19)
    for chart, r_low in ((page_pope_chart(HYPERBOLIC), 1.2), (page_pope_chart(EDGE_SMOOTH), 2.2)):
        for _ in range(5):
            pt = sample_point(rng, r_low, 6.0)
            jet = curvature_at(chart, pt)
            fd = fd_oracle(chart, pt)
            scale = np.max(np.abs(jet.riemann))
            assert np.max(np.abs(jet.riemann - fd.riemann)) / scale < 1e-5


# A second reference for the jets, beside the FD oracle: the exact route at
# the same points, Fraction(p), on the chart's exact data.  The relative
# error max|float - exact| / max|exact| of each tensor at each point
# measures at most 2.5e-15 here (riemann; metric 4.4e-16), so 1e-13 leaves
# a margin of 40.  The FD tests keep their own bounds.
@pytest.mark.parametrize("params", [HYPERBOLIC, EDGE_SMOOTH, cpn_catalogue(1, 3, F(7, 3))], ids=["conic", "edge", "edge-k3"])
def test_float_reports_match_the_exact_route(params):
    points = _sample_points(7, 8, float(params.r1) + 0.1, 10.0)
    floats = curvature_reports(page_pope_chart(params), points)
    exact = curvature_reports(exact_page_pope_chart(params), fractions(points))
    for name in ("metric", "christoffel", "riemann", "ricci"):
        want = getattr(exact, name)
        assert {type(e) for e in want.flat} == {F}, name
        axes = tuple(range(want.ndim - 1))
        error = np.abs(getattr(floats, name) - want.astype(float)).max(axis=axes) / np.abs(want).max(axis=axes).astype(float)
        assert error.max() <= 1e-13, name


def test_fd_oracle_edge_params_at_r3():
    chart = page_pope_chart(EDGE_SMOOTH)
    pt = (3.0, 1.2, 0.3, -0.2)
    jet = curvature_at(chart, pt)
    fd = fd_oracle(chart, pt)
    assert np.max(np.abs(jet.riemann - fd.riemann)) / np.max(np.abs(jet.riemann)) < 1e-5


def test_fd_oracle_flat_both_paths():
    chart = euclidean_chart(3)
    pt = (0.1, 0.2, 0.3)
    assert np.max(np.abs(curvature_at(chart, pt).riemann)) < 1e-15
    assert np.max(np.abs(fd_oracle(chart, pt).riemann)) < 1e-9


def test_fd_step_too_large_near_boundary():
    chart = page_pope_chart(HYPERBOLIC)
    with pytest.raises(StepTooLarge):
        fd_oracle(chart, (1.005, 1.0, 0.0, 0.0), step=1e-3)


def test_chart_domain_checks():
    chart = page_pope_chart(EDGE_SMOOTH)
    assert not chart.in_domain((1.5, 1.0, 0.0, 0.0))
    assert not chart.in_domain((3.0, 1.0, 0.8, 0.7))
    with pytest.raises(ValueError, match="outside chart domain"):
        curvature_at(chart, (1.5, 1.0, 0.0, 0.0))


def test_domain_check_names_the_first_point_outside():
    chart = page_pope_chart(EDGE_SMOOTH)
    points = [(3.0, 1.0, 0.1, 0.1), (1.5, 1.0, 0.0, 0.0), (3.0, 1.0, 0.8, 0.7)]
    assert chart.in_domain(np.array(points)).tolist() == [True, False, False]
    with pytest.raises(ValueError, match=r"^point \(1\.5, 1\.0, 0\.0, 0\.0\) outside chart domain$"):
        curvature_reports(chart, points)


@pytest.mark.parametrize("axis", range(4))
def test_a_nan_coordinate_lies_outside_the_domain(axis):
    chart = page_pope_chart(EDGE_SMOOTH)
    point = [3.0, 1.0, 0.1, 0.1]
    point[axis] = math.nan
    assert not chart.in_domain(point)
    with pytest.raises(ValueError, match=r"^point \(.*nan.*\) outside chart domain$"):
        curvature_reports(chart, [(3.0, 1.0, 0.1, 0.1), point])


def test_a_block_chart_tests_each_point_against_its_own_inner_radius():
    block = page_pope_block([page_pope_chart(params) for params in (HYPERBOLIC, EDGE_SMOOTH, EDGE_SMOOTH)], 1)  # r1 = 1, 2, 2
    assert block.in_domain(np.array([(1.5, 1.0, 0.0, 0.0), (2.5, 1.0, 0.0, 0.0), (1.5, 1.0, 0.0, 0.0)])).tolist() == [True, True, False]


def test_christoffel_checks_the_domain():
    with pytest.raises(ValueError, match="outside chart domain"):
        curvature_at(page_pope_chart(EDGE_SMOOTH), (3.0, 1.0, 0.8, 0.7)).christoffel


def test_unsupported_dimension():
    params = FamilyParams(n=2, lam=F(2), c=F(1), Lambda=F(-5), r1=F(1))
    with pytest.raises(UnsupportedDimension):
        page_pope_chart(params)
    with pytest.raises(UnsupportedDimension):
        rescaled_chart(RescaledProfile(2, 2, F(1, 2)))


def test_singular_metric():
    # cond 2e12 lies past the guard's 1e12 while its cheap bound
    # d^2 max|G| max|G^-1| = 3.2e13 stays below 1e14, so a bound that
    # cleared up to 1e14 would let it through without the SVD
    for diagonal, cond in (((1.0, 1e-13), "1e+13"), ((1.0, 1.0, 1.0, 5e-13), "2e+12")):
        d = len(diagonal)
        nearly_singular = ChartMetric(
            tuple(f"x{i}" for i in range(d)), lambda p, g=diagonal: np.diag(g).tolist(), lambda p: True, reads=tuple(range(d))
        )
        with pytest.raises(SingularMetric, match=rf"^metric condition number {re.escape(cond)} at \(0\.0,"):
            curvature_at(nearly_singular, (0.0,) * d)


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
    r1 = curvature_at(base, (1.7, 0.4, u, v), lam=-3.0).einstein_residual
    r2 = curvature_at(inv, (1.7, 0.4, u / q, v / q), lam=-3.0).einstein_residual
    assert abs(r1 - r2) < 1e-6
    assert curvature_at(inv, (1.7, 0.4, u / q, v / q)).scalar == pytest.approx(-12.0, rel=1e-9)


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
            expected = jac.T @ metric_values(base, (x0, x1, w[0] / big_q, w[1] / big_q)) @ jac
            got = metric_values(inv, (x0, x1, *w))
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
    rep = curvature_at(page_pope_chart(EDGE_SMOOTH), (3.0, 1.2, 0.3, -0.2))
    assert rep.symmetry_max < 1e-8
    assert rep.bianchi_max < 1e-8


def test_report_rejects_a_tensor_that_breaks_only_bianchi():
    # constant curvature 1 on the identity metric, plus 1e-4 times the
    # Levi-Civita symbol: every pair symmetry holds exactly, but the cyclic
    # sum is 3e-4 eps_ijkl
    g = np.eye(4)
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        eps[perm] = (-1) ** inversions
    R = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g) + 1e-4 * eps
    with pytest.raises(CurvatureCheckError, match=r"first Bianchi violation 3\.000e-04"):
        CurvatureReport(
            point=np.zeros((1, 4)),
            metric=g[..., None],
            christoffel=np.zeros((4, 4, 4, 1)),
            riemann=R[..., None],
            ricci=3 * g[..., None],
            scalar=np.array([12.0]),
            einstein_residual=None,
        )
