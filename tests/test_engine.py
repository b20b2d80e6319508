"""Batched curvature engine: row-for-row equivalence, block independence, the exact route, goldens, the conditioning guard, a block's memory."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import curvature_at, exact_page_pope_chart, inverse_by_cond
from pelab import geom
from pelab.cli import main
from pelab.cmd_verify import _sample_points
from pelab.family import FamilyParams, cpn_catalogue, solve_profile
from pelab.geom import (
    SCALAR_COLUMNS,
    ChartMetric,
    SingularMetric,
    curvature_reports,
    metric_derivatives_jet,
    page_pope_block,
    page_pope_chart,
    point_scalars,
    rescaled_chart,
)
from pelab.laurent import LaurentPoly
from pelab.limits import RescaledProfile, rho1_limit

HYPERBOLIC = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
EDGE_SMOOTH = FamilyParams(n=1, lam=F(2), c=F(2, 9), Lambda=F(-3), r1=F(2))
FIELDS = ("metric", "christoffel", "riemann", "ricci")


def _edge_points(count, seed=0):
    return _sample_points(seed, count, 2.1, 10.0)


def test_batch_rows_are_bit_equal_to_single_points():
    chart = page_pope_chart(EDGE_SMOOTH)
    pts = _edge_points(300)
    batch = curvature_reports(chart, pts, lam=-3.0)
    assert batch.metric.shape == (4, 4, 300) and batch.riemann.shape == (4, 4, 4, 4, 300)
    columns = point_scalars(chart, pts, -3.0)  # blocks of at most BLOCK_POINTS
    for i, pt in enumerate(pts):
        one = curvature_at(chart, pt, lam=-3.0)
        assert one.point == tuple(batch.point[i].tolist()) == tuple(pt.tolist())
        for name in FIELDS:
            assert np.array_equal(getattr(one, name), getattr(batch, name)[..., i]), (i, name)
        expected = [getattr(one, name) for name in SCALAR_COLUMNS]
        assert [getattr(batch, name)[i] for name in SCALAR_COLUMNS] == expected
        assert columns[i].tolist() == expected


def test_results_do_not_depend_on_block_size(monkeypatch):
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    chart = rescaled_chart(profile)
    pts = _sample_points(5, 300, 1.1 * profile.rho1, 5.0 * profile.rho1)
    by_block = []
    for block in (1, 7, 128):
        monkeypatch.setattr(geom, "BLOCK_POINTS", block)
        by_block.append(point_scalars(chart, pts, 0.0))
    assert all(np.array_equal(by_block[0], other) for other in by_block[1:])


def test_a_block_chart_gives_every_point_the_bits_of_its_own_chart(monkeypatch):
    # a conic member (its P has no r^1 term), an edge member, and one with other c, lambda and Lambda
    members = [
        FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1)),
        FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(5, 4)),
        FamilyParams(n=1, lam=F(3), c=F(1, 2), Lambda=F(-5), r1=F(3, 2)),
    ]
    count = 40
    charts = [page_pope_chart(params) for params in members]
    points = [_sample_points(i, count, float(params.r1) + 0.1, 10.0) for i, params in enumerate(members)]
    lam = np.repeat([float(params.Lambda) for params in members], count)
    monkeypatch.setattr(geom, "BLOCK_POINTS", count * len(members))  # a block chart describes one block
    block = point_scalars(page_pope_block(charts, count), np.concatenate(points), lam)
    alone = np.concatenate([point_scalars(chart, pts, float(params.Lambda)) for chart, pts, params in zip(charts, points, members)])
    assert block.tobytes() == alone.tobytes()
    assert block[:, 0].max() < 1e-12


def test_riemann_is_exactly_antisymmetric_in_its_last_pair():
    # R_ijkl = W_jlik - W_jkil: swapping k and l swaps the operands of one
    # subtraction, so R + R_ijlk is 0.0 in floats, not only to rounding.
    # CurvatureReport leaves this term out of symmetry_max; it is checked here.
    members = [HYPERBOLIC, EDGE_SMOOTH, FamilyParams(n=1, lam=F(3), c=F(1, 2), Lambda=F(-5), r1=F(3, 2))]
    batches = [(page_pope_chart(params), _sample_points(i, 128, float(params.r1) + 0.1, 10.0)) for i, params in enumerate(members)]
    profile = RescaledProfile(1, 2, rho1_limit(1).derived_sq)
    batches.append((rescaled_chart(profile), _sample_points(5, 128, 1.1 * profile.rho1, 5.0 * profile.rho1)))
    for chart, points in batches:
        R = curvature_reports(chart, points).riemann
        assert np.abs(R).max() > 0.1
        assert np.abs(R + np.einsum("ijlk...->ijkl...", R)).max() == 0.0, chart.label


def test_jet_derivatives_carry_the_batch_axis():
    chart = page_pope_chart(HYPERBOLIC)
    for count in (1, 3):
        G, dG, ddG = metric_derivatives_jet(chart, np.tile((1.7, 0.4, 0.2, 0.1), (count, 1)))
        assert (G.shape, dG.shape, ddG.shape) == ((4, 4, count), (4, 4, 4, count), (4, 4, 4, 4, count))


def test_points_must_be_a_batch_of_chart_points():
    chart = page_pope_chart(HYPERBOLIC)
    with pytest.raises(ValueError):
        curvature_reports(chart, (1.7, 0.4, 0.2, 0.1))
    with pytest.raises(ValueError, match="outside chart domain"):
        curvature_reports(chart, [(1.7, 0.4, 0.2, 0.1), (0.5, 0.4, 0.2, 0.1)])


def test_an_empty_batch_gives_empty_fields():
    chart = page_pope_chart(EDGE_SMOOTH)
    rep = curvature_reports(chart, np.empty((0, 4)), -3.0)
    assert rep.point.shape == (0, 4)
    assert (rep.metric.shape, rep.christoffel.shape, rep.riemann.shape, rep.ricci.shape) == ((4, 4, 0), (4, 4, 4, 0), (4, 4, 4, 4, 0), (4, 4, 0))
    for name in SCALAR_COLUMNS:
        assert getattr(rep, name).shape == (0,), name
    assert point_scalars(chart, np.empty((0, 4)), -3.0).shape == (0, 4)


# -- the exact route: Fraction points on a chart's exact data -------------

# P is a polynomial with rational coefficients, so at a rational point every
# member's Ric - Lambda g is a rational number, and it is 0.
EXACT_MEMBERS = {
    "edge-k1": cpn_catalogue(1, 1, F(5, 2)),
    "edge-k3": cpn_catalogue(1, 3, F(7, 3)),
    "conic-k2": cpn_catalogue(1, 2, F(1)),
    "edge-lam2": FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3, 2), r1=F(2)),
}


def _fraction_types(array) -> set:
    return {type(e) for e in np.asarray(array).flat}


@pytest.mark.parametrize("params", EXACT_MEMBERS.values(), ids=EXACT_MEMBERS.keys())
def test_the_exact_route_gives_each_member_ric_equal_to_lambda_g(params):
    # (r - r1, psi, u, v) of three rational points above the inner radius
    offsets = [(F(1, 2), F(1), F(3, 10), F(-1, 5)), (F(3), F(2), F(1, 7), F(2, 5)), (F(1, 9), F(5), F(-1, 2), F(0))]
    points = np.array([(params.r1 + dr, psi, u, v) for dr, psi, u, v in offsets], dtype=object)
    rep = curvature_reports(exact_page_pope_chart(params), points, params.Lambda)
    defect = rep.ricci - params.Lambda * rep.metric
    # one float anywhere (a halving written as * 0.5) makes every later value a float
    assert _fraction_types(defect) == {F}
    assert all(e == 0 for e in defect.flat)
    for name in ("einstein_residual", "symmetry_max", "bianchi_max"):
        column = getattr(rep, name)
        assert _fraction_types(column) == {F} and column.tolist() == [0, 0, 0], name


def test_the_exact_route_measures_a_perturbed_profile():
    # P + 1e-9 r^3 solves no Einstein equation: the defect is exact and not 0
    params = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(5, 2))
    chart = exact_page_pope_chart(params, solve_profile(params) + LaurentPoly({3: F(1, 10**9)}))
    rep = curvature_reports(chart, np.array([(F(3), F(1), F(3, 10), F(-1, 5))], dtype=object), params.Lambda)
    defect = max(abs(e) for e in (rep.ricci - params.Lambda * rep.metric).flat)
    assert type(defect) is F and 5.3e-9 < defect < 5.5e-9
    assert rep.einstein_residual[0] > 0


REPORT_FIELDS = ("point", "metric", "christoffel", "riemann", "ricci", "scalar", "einstein_residual", "symmetry_max", "bianchi_max")


def test_an_int_coordinate_stays_on_the_exact_route():
    # an int r among Fractions would make 1 / r a float and every later value with it
    chart = exact_page_pope_chart(EXACT_MEMBERS["edge-k1"])
    by_int, by_fraction = (
        curvature_reports(chart, np.array([(r, 1, F(3, 10), F(-1, 5))], dtype=object), -3) for r in (3, F(3))
    )
    for name in REPORT_FIELDS:
        got, want = getattr(by_int, name), getattr(by_fraction, name)
        assert _fraction_types(got) == {F} and got.shape == want.shape and (got == want).all(), name


def test_an_exactly_singular_metric_raises_at_its_point():
    # det [[1, x], [x, y]] = y - x^2 is 0 at the second point only
    chart = ChartMetric(("x", "y"), lambda p: [[1, p[0]], [p[0], p[1]]], lambda p: True, reads=(0, 1))
    points = np.array([(F(1, 2), F(1, 3)), (F(1, 2), F(1, 4))], dtype=object)
    with pytest.raises(SingularMetric, match=r"singular at \(Fraction\(1, 2\), Fraction\(1, 4\)\)"):
        curvature_reports(chart, points)


# (einstein_residual, scalar, bianchi_max, symmetry_max) of the per-point
# engine that predates the batched one, at fixed points.
GOLDENS = [
    (HYPERBOLIC, (1.7, 0.4, 0.2, 0.1), -3.0, (1.8797426871960325e-15, -11.999999999999995, 1.2432160629603393e-16, 4.972864251841357e-16)),
    (EDGE_SMOOTH, (3.0, 1.2, 0.3, -0.2), -3.0, (6.137724123292727e-16, -11.999999999999998, 6.62726805822425e-18, 2.12072577863176e-16)),
    (
        FamilyParams(n=1, lam=F(2), c=F(1), Lambda=F(-3), r1=F(1)),
        (9.5, 5.0, -0.6, 0.4),
        -3.0,
        (8.620673517240797e-16, -12.000000000000002, 7.107180345442427e-17, 3.137714657431163e-16),
    ),
    ("rescaled", (2.0, 1.0, 0.2, -0.1), 0.0, (6.443291755757171e-17, 1.4567056431803394e-16, 7.814644760458429e-18, 1.685032776473849e-17)),
]


@pytest.mark.parametrize("params, point, lam, golden", GOLDENS)
def test_scalars_match_the_per_point_engine(params, point, lam, golden):
    if params == "rescaled":
        chart = rescaled_chart(RescaledProfile(1, 2, rho1_limit(1).derived_sq))
    else:
        chart = page_pope_chart(params)
    rep = curvature_at(chart, point, lam=lam)
    for name, want in zip(SCALAR_COLUMNS, golden):
        assert abs(getattr(rep, name) - want) <= 1e-12, name


# -- the conditioning guard --------------------------------------------

FLOAT_FAULTS = dict(over="raise", divide="raise", invalid="raise")  # point_scalars' errstate


def _outcome(inverse, G):
    """What a guard does with the batch G: its inverse's bytes, or the exception it raises."""
    points = np.arange(len(G) * 4, dtype=float).reshape(-1, 4)
    try:
        with np.errstate(**FLOAT_FAULTS):
            return ("pass", inverse(G, points).tobytes())
    except Exception as exc:  # the two guards must raise alike
        return (type(exc).__name__, str(exc))


def _spd_batch(rng, count, rotate):
    """Symmetric positive definite 4x4 metrics with condition numbers log-uniform in [1, 1e16]."""
    cond = 10.0 ** rng.uniform(0.0, 16.0, count)
    eigen = cond[:, None] ** rng.permuted(np.tile(np.linspace(0.0, 1.0, 4), (count, 1)), axis=1)
    G = eigen[:, :, None] * np.eye(4)
    if rotate:
        Q = np.linalg.qr(rng.standard_normal((count, 4, 4)))[0]
        G = Q @ G @ Q.swapaxes(-1, -2)
    return G


@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_the_cheap_bound_decides_as_the_svd_does(rotate, scale):
    G = scale * _spd_batch(np.random.default_rng(23 + rotate), 400, rotate)
    cond = np.linalg.cond(G)
    assert cond.min() < 1e3 and (cond > 1e12).sum() > 50 and ((1e11 < cond) & (cond <= 1e12)).any()
    for i in range(len(G)):
        assert _outcome(geom._inverse, G[i : i + 1]) == _outcome(inverse_by_cond, G[i : i + 1]), cond[i]
    # a whole batch raises at its first failing point, or passes with the same bits
    for start in range(0, len(G), 40):
        block = G[start : start + 40]
        assert _outcome(geom._inverse, block) == _outcome(inverse_by_cond, block)
        well = block[np.linalg.cond(block) <= 1e12]
        assert _outcome(geom._inverse, well) == _outcome(inverse_by_cond, well) == ("pass", np.linalg.inv(well).tobytes())


def test_the_guard_meets_degenerate_metrics_as_the_svd_does():
    eye = np.eye(4)
    zero = np.zeros((4, 4))
    singular = eye.copy()
    singular[:2, :2] = 1.0
    subnormal = np.diag([1e-320, 1.0, 1.0, 1.0])
    overflow = eye.copy()
    overflow[:2, :2] = 1e-300 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    for bad in (zero, singular, subnormal, overflow):
        for batch in ([bad], [eye, bad, eye]):
            G = np.array(batch)
            assert _outcome(geom._inverse, G) == _outcome(inverse_by_cond, G)
    assert _outcome(geom._inverse, np.array([eye, overflow]))[0] == "SingularMetric"


def test_cond_of_a_subset_is_bit_equal_to_those_rows_of_the_batch():
    G = _spd_batch(np.random.default_rng(5), 300, rotate=True)
    rows = np.sort(np.random.default_rng(6).choice(len(G), 37, replace=False))
    assert np.linalg.cond(G[rows]).tobytes() == np.linalg.cond(G)[rows].tobytes()


def test_a_block_of_chart_points_runs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond ran")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    for r1 in ("1", "2"):  # a conic and an edge member
        assert main(["verify", "--n", "1", "--k", "1", "--r1", r1, "--points", "200", "--format", "json"]) == 0


def test_one_block_peaks_below_five_rank_four_temporaries():
    # one (4, 4, 4, 4, 64) array is 0.13 MB; the block peaks at 0.65 MB, and
    # building W from fresh temporaries takes it to 0.77 MB
    chart = page_pope_chart(EDGE_SMOOTH)
    pts = _edge_points(geom.BLOCK_POINTS)
    point_scalars(chart, pts, -3.0)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        point_scalars(chart, pts, -3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7e6
