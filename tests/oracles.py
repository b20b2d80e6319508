"""Independent float references that the tests hold the curvature engine against.

No pelab command reaches these: a 4th-order finite-difference route to the
curvature that uses no jets, sectional curvature, a Cholesky test of positive
definiteness, the residual of the connection equation dA = -2 omega, four
model charts (the base sphere, flat space, a constant multiple of a chart and
the (u, v) inversion of a chart), the numpy.random draw that the seeded
chart points reproduce, the conditioning guard that runs the SVD on
every metric, and the Kaehler defects of a fibration's form.  The
engine reports batches only; curvature_at reads one point as a batch of one.
exact_page_pope_chart and fractions give the engine's exact route, on
Fractions, that the float reports are held against, and shift_reference
expands P(a + u) by repeated products of (u + a), the exact reference for
LaurentPoly.taylor and the family's arbiters.  pytest puts tests/
on sys.path, so a test reads them with `from oracles import ...`.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from pelab.family import FamilyParams, solve_profile
from pelab.geom import ChartMetric, CurvatureReport, SingularMetric, UnsupportedDimension, _base_blocks, _check_domain, _page_pope, _report, curvature_reports
from pelab.jets import Jet2, seed_point
from pelab.laurent import LaurentPoly


class DegeneratePlane(ValueError):
    """The two tangent vectors do not span a 2-plane."""


class StepTooLarge(ValueError):
    """Finite-difference stencil would leave the chart domain."""


def shift_reference(p: LaurentPoly, a) -> LaurentPoly:
    """P(a + u) as a polynomial in u: sum c (u + a)^e by repeated products of (u + a), for a P without negative exponents."""
    u_plus_a = LaurentPoly({1: 1, 0: a})
    out = LaurentPoly()
    for e, c in p.items():
        out = out + c * u_plus_a**e
    return out


def sample_points(seed: int, count: int, lower: float, upper: float) -> np.ndarray:
    """cmd_verify._sample_points as numpy.random draws it: Generator.uniform, then the same disk map."""
    draw = np.random.default_rng(seed).uniform((lower, 0.05, 0.0, 0.0), (upper, 2 * np.pi - 0.05, 1.0, 2 * np.pi), size=(count, 4))
    disk_r = 0.9 * np.sqrt(draw[:, 2])
    draw[:, 2], draw[:, 3] = disk_r * np.cos(draw[:, 3]), disk_r * np.sin(draw[:, 3])
    return draw


def inverse_by_cond(G: np.ndarray, points) -> np.ndarray:
    """The conditioning guard with np.linalg.cond (an SVD) on every metric of the batch, which geom._inverse must decide like."""
    cond = np.linalg.cond(G)
    bad = np.flatnonzero(~(cond <= 1e12))
    if bad.size:
        i = int(bad[0])
        raise SingularMetric(f"metric condition number {cond[i]:.3g} at {tuple(points[i].tolist())}")
    return np.linalg.inv(G)


def exact_page_pope_chart(params: FamilyParams, profile: LaurentPoly | None = None) -> ChartMetric:
    """The page-pope chart of params on its exact data: the Fractions of P (or of profile), c, lambda and r1."""
    p = solve_profile(params) if profile is None else profile
    return _page_pope((tuple(p.items()), params.c, params.lam, params.r1), f"exact page-pope r1={params.r1}")


def fractions(points) -> np.ndarray:
    """The float points as an object array of the Fractions they equal."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(points, dtype=float))


def metric_values(chart: ChartMetric, point) -> np.ndarray:
    """The metric matrix of chart at a point, evaluated on plain floats."""
    return np.array(chart.metric([float(x) for x in point]), dtype=float)


_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0, -8.0, 8.0, -1.0)  # divide by 12 h


def metric_derivatives_fd(chart: ChartMetric, point, step: float):
    """(G, dG, ddG) from 4th-order central differences, no jets involved."""
    d = chart.dim
    base = np.asarray(point, dtype=float)
    margin = 10.0 * step
    for i in range(d):
        for sign in (-1.0, 1.0):
            probe = base.copy()
            probe[i] += sign * margin
            if not chart.in_domain(probe):
                raise StepTooLarge(f"margin {margin} leaves the domain along coordinate {i}")

    cache: dict[tuple, np.ndarray] = {}

    def value(offsets: tuple) -> np.ndarray:
        if offsets not in cache:
            p = base.copy()
            for axis, k in offsets:
                p[axis] += k * step
            cache[offsets] = metric_values(chart, p)
        return cache[offsets]

    G = value(())
    dG = np.zeros((d, d, d))
    ddG = np.zeros((d, d, d, d))
    for a in range(d):
        dG[a] = sum(w * value(((a, k),)) for k, w in zip(_D1_OFFSETS, _D1_WEIGHTS)) / (12 * step)
        ddG[a, a] = (
            -value(((a, -2),)) + 16 * value(((a, -1),)) - 30 * G + 16 * value(((a, 1),)) - value(((a, 2),))
        ) / (12 * step**2)
    for a in range(d):
        for b in range(a + 1, d):
            acc = np.zeros((d, d))
            for ka, wa in zip(_D1_OFFSETS, _D1_WEIGHTS):
                for kb, wb in zip(_D1_OFFSETS, _D1_WEIGHTS):
                    acc += wa * wb * value(((a, ka), (b, kb)))
            ddG[a, b] = ddG[b, a] = acc / (12 * step) ** 2
    return G, dG, ddG


def _row(report: CurvatureReport) -> SimpleNamespace:
    """Point 0 of every field of a batch report: the point as a tuple, the scalar columns as floats, the tensors [..., 0]."""
    row = SimpleNamespace()
    for name in type(report).__annotations__:
        value = getattr(report, name)
        if value is not None:
            value = value[0].item() if value.ndim == 1 else value[..., 0]
        setattr(row, name, value)
    row.point = tuple(report.point[0].tolist())
    return row


def curvature_at(chart: ChartMetric, point, lam: float | None = None) -> SimpleNamespace:
    """The curvature report of one point: point 0 of the engine's report of a batch of one."""
    return _row(curvature_reports(chart, [point], lam))


def fd_oracle(chart: ChartMetric, point, step: float = 1e-3) -> SimpleNamespace:
    """Curvature via 4th-order finite differences only; the cross-check path, read as curvature_at reads it."""
    pt = np.asarray(point, dtype=float)
    _check_domain(chart, [pt])
    G, dG, ddG = metric_derivatives_fd(chart, pt, step)
    return _row(_report(pt[None], G[..., None], dG[..., None], ddG[..., None], None))


def sectional(chart: ChartMetric, point, x, y) -> float:
    """Sectional curvature of the plane spanned by tangent vectors x, y."""
    rep = curvature_at(chart, point)
    G = rep.metric
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = float(x @ G @ x)
    yy = float(y @ G @ y)
    xy = float(x @ G @ y)
    denom = xx * yy - xy**2
    if denom < 1e-12 * xx * yy:
        raise DegeneratePlane(f"plane denominator {denom:.3e}")
    num = float(np.einsum("ijkl,i,j,k,l->", rep.riemann, x, y, y, x))
    return num / denom


def is_positive_definite(chart: ChartMetric, point) -> bool:
    try:
        np.linalg.cholesky(metric_values(chart, point))
        return True
    except np.linalg.LinAlgError:
        return False


def connection_curvature_residual(lam: float, u: float, v: float) -> float:
    """|dA + 2 omega| at (u, v), evaluated by jet exterior differentiation."""
    ju = Jet2.variable(u, 0, 2)
    jv = Jet2.variable(v, 1, 2)
    h, a_u, a_v = _base_blocks(lam, ju, jv)
    # dA = (d_u a_v - d_v a_u) du ^ dv ; omega = h du ^ dv
    curl = a_v.grad[0] - a_u.grad[1]
    return abs(curl + 2.0 * h.value)


def sphere_chart(lam: float) -> ChartMetric:
    """The base surface alone: ghat with Gauss curvature lam on the (u, v) disk."""

    lamf = float(lam)

    def metric(x):
        h = _base_blocks(lamf, *x)[0]
        return [[h, 0.0], [0.0, h]]

    def in_domain(points):
        u, v = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        return u * u + v * v < 4.0

    return ChartMetric(("u", "v"), metric, in_domain, reads=(0, 1), label=f"sphere lam={lam}")


def euclidean_chart(dim: int = 4) -> ChartMetric:
    def metric(x):
        return [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    return ChartMetric(tuple(f"x{i}" for i in range(dim)), metric, lambda pt: True, reads=tuple(range(dim)), label=f"euclidean d={dim}")


def scaled_chart(chart: ChartMetric, factor: float) -> ChartMetric:
    """The same chart with metric multiplied by a positive constant."""
    if factor <= 0:
        raise ValueError("factor must be positive")

    def metric(x):
        rows = chart.metric(x)
        return [[factor * e for e in row] for row in rows]

    return ChartMetric(chart.coords, metric, chart.in_domain, reads=chart.reads, label=f"{chart.label} x{factor}")


def uv_inverted_chart(chart: ChartMetric) -> ChartMetric:
    """Pull the chart back under (u, v) -> (u, v)/(u^2+v^2) on the last two coordinates.

    The inversion is a diffeomorphism of the punctured plane, so every
    curvature invariant must agree with the base chart at corresponding
    points; the new domain is the exterior Q > 1 of the unit circle.
    """
    if chart.dim != 4:
        raise UnsupportedDimension("uv inversion expects a 4-dimensional chart")

    def metric(x):
        x0, x1, U, V = x
        Q = U * U + V * V
        M = chart.metric((x0, x1, U / Q, V / Q))
        Qsq = Q * Q
        # the symmetric Jacobian J of (U, V) -> (u, v)
        j_uu = (V * V - U * U) / Qsq
        j_uv = -2.0 * U * V / Qsq
        j_vv = (U * U - V * V) / Qsq

        def times_j(a, b):
            return [a * j_uu + b * j_uv, a * j_uv + b * j_vv]

        # [[M_ab, M_a. J], [J M_.b, J M J]]: M times the Jacobian, then its transpose times that
        half = [[row[0], row[1], *times_j(row[2], row[3])] for row in M]
        lower = [times_j(half[2][j], half[3][j]) for j in range(4)]
        return [half[0], half[1], [e for e, _ in lower], [e for _, e in lower]]

    def in_domain(points):
        x0, x1, U, V = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        Q = U * U + V * V
        with np.errstate(divide="ignore", invalid="ignore"):  # Q = 0 lies outside either way
            return (Q > 1.0) & chart.in_domain(np.stack((x0, x1, U / Q, V / Q), axis=-1))

    # the inversion reads (U, V) and whatever the chart reads of (x0, x1)
    reads = tuple(sorted({*chart.reads, 2, 3}))
    return ChartMetric(chart.coords, metric, in_domain, reads=reads, label=f"{chart.label} inverted")


def kaehler_defects(chart: ChartMetric, points, lam: float, form=lambda rho: (rho * rho, rho)) -> tuple[np.ndarray, np.ndarray]:
    """(max|nabla omega| / max|omega|, max|J^2 + 1|) per point for omega = area omega_hat - fibre dx ^ theta.

    chart is a fibration chart (x, psi, u, v) with base Gauss curvature
    lam, and form(x) gives the jets (area, fibre); the default is the
    rescaled limit's omega = rho^2 omega_hat - rho drho ^ theta.
    omega_hat = h du ^ dv and theta = dpsi + a_u du + a_v dv come from
    geom._base_blocks, so omega_x,psi = -fibre, omega_x,u = -fibre a_u,
    omega_x,v = -fibre a_v and omega_u,v = area h.  J = g^-1 omega, and
    nabla_k omega_ij = d_k omega_ij - Gamma^l_ki omega_lj - Gamma^l_kj omega_il
    takes Gamma from the engine report's christoffel field and d omega from
    omega's jets along (x, u, v).
    """
    pts = np.asarray(points, dtype=float)
    rep = curvature_reports(chart, pts)
    reads = (0, 2, 3)
    x, _, u, v = seed_point(pts, reads)
    h, a_u, a_v = _base_blocks(lam, u, v)
    area, fibre = form(x)
    omega, d_omega = np.zeros((4, 4, len(pts))), np.zeros((4, 4, 4, len(pts)))
    for (i, j), e in {(0, 1): -fibre, (0, 2): -fibre * a_u, (0, 3): -fibre * a_v, (2, 3): area * h}.items():
        omega[i, j], omega[j, i] = e.value, -e.value
        d_omega[reads, i, j], d_omega[reads, j, i] = e.grad, -e.grad
    gamma = rep.christoffel
    nabla = d_omega - np.einsum("lkin,ljn->kijn", gamma, omega) - np.einsum("lkjn,iln->kijn", gamma, omega)
    nabla_defect = np.max(np.abs(nabla), axis=(0, 1, 2)) / np.max(np.abs(omega), axis=(0, 1))
    J = np.linalg.inv(np.moveaxis(rep.metric, -1, 0)) @ np.moveaxis(omega, -1, 0)
    return nabla_defect, np.max(np.abs(J @ J + np.eye(4)), axis=(1, 2))
