"""Chart-based numerical curvature engine.

A :class:`ChartMetric` is a coordinate chart whose metric components are
written in generic arithmetic, so the same component function can be
evaluated on plain floats (for values and finite differences) or on
:class:`~pelab.jets.Jet2` variables (for exact-to-rounding first and
second derivatives).  From the component data

    G[i,j],   dG[k,i,j] = d_k g_ij,   ddG[k,l,i,j] = d_k d_l g_ij

the standard Levi-Civita/curvature formulas produce Christoffel symbols,
the lowered Riemann tensor, Ricci, scalar curvature and derived checks.

Conventions: Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij);
the lowered Riemann tensor is normalised so that for a space of constant
curvature K it equals K (g_il g_jk - g_ik g_jl), hence

    sec(X, Y) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - <X,Y>^2)

recovers K, and Ric_jl = R^i_{jil} is positive on spheres.

The concrete charts cover a cohomogeneity-one Einstein family on a line
bundle over a Kaehler-Einstein surface: coordinates (r, psi, u, v) with
ghat = (4/lam)(du^2+dv^2)/(1+u^2+v^2)^2 (Gauss curvature lam) and
connection form theta = dpsi + A, where A solves dA = -2*omega for the
area form omega of ghat in the rotationally symmetric gauge.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .jets import Jet2, laurent_eval, seed_point
from .family import solve_profile
from .records import record

if TYPE_CHECKING:  # annotations only: page-pope charts run without pelab.limits
    from .family import FamilyParams
    from .limits import RescaledProfile


class SingularMetric(ValueError):
    """Metric matrix not invertible (or hopelessly ill-conditioned) at the point."""


class DegeneratePlane(ValueError):
    """The two tangent vectors do not span a 2-plane."""


class UnsupportedDimension(ValueError):
    """Chart constructor called with a base dimension it does not provide."""


class StepTooLarge(ValueError):
    """Finite-difference stencil would leave the chart domain."""


class CurvatureCheckError(AssertionError):
    """Riemann symmetries or first Bianchi identity failed at construction."""


class BeyondFloatRange(ValueError):
    """An exact value of a chart does not fit in a float."""


@contextlib.contextmanager
def _rounding_to_floats(source: str):
    """Round the exact data of a chart to floats; a value beyond the float range is a domain error."""
    try:
        yield
    except OverflowError:
        raise BeyondFloatRange(f"{source}: an exact value lies beyond the float range") from None


@record
class ChartMetric:
    """A coordinate chart with a generic-arithmetic metric component function.

    metric(point) must accept a sequence of floats or Jet2 values and
    return a dim x dim nested list; entries may be plain numbers where a
    component is constant.  in_domain is a predicate on float points.
    """

    dim: int
    coords: tuple
    metric: Callable
    in_domain: Callable
    label: str = ""

    def metric_values(self, point) -> np.ndarray:
        return np.array(self.metric([float(x) for x in point]), dtype=float)


def metric_derivatives_jet(chart: ChartMetric, points):
    """(G, dG, ddG) from one jet evaluation of the metric components.

    points has shape B + (d,): one point, or N points for B = (N,).  The
    results have shapes B + (d, d), B + (d, d, d) and B + (d, d, d, d).
    """
    d = chart.dim
    pts = np.asarray(points, dtype=float)
    batch = pts.shape[:-1]
    rows = chart.metric(seed_point(pts, d))
    G = np.zeros(batch + (d, d))
    dG = np.zeros(batch + (d, d, d))
    ddG = np.zeros(batch + (d, d, d, d))
    for i in range(d):
        for j in range(d):
            e = rows[i][j]
            if isinstance(e, Jet2):
                G[..., i, j] = e.value
                dG[..., :, i, j] = e.grad
                ddG[..., :, :, i, j] = e.hess
            else:
                G[..., i, j] = float(e)
    return G, dG, ddG


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
            cache[offsets] = chart.metric_values(p)
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


def _point_at(points, i: int) -> tuple:
    """Point i of a (d,) or (N, d) point array, as a tuple of floats."""
    pts = np.asarray(points, dtype=float)
    return tuple(pts.reshape(-1, pts.shape[-1])[i].tolist())


def _inverse(G: np.ndarray, points=None) -> np.ndarray:
    """Inverse of every metric in the batch, guarded point by point.

    The first point in batch order whose condition number is not finite or
    exceeds 1e12 raises SingularMetric naming that point.
    """
    finite = np.isfinite(G).all(axis=(-2, -1))
    cond = np.where(finite, np.linalg.cond(np.where(finite[..., None, None], G, np.eye(G.shape[-1]))), np.inf)
    bad = np.flatnonzero(~(cond <= 1e12))
    if bad.size:
        i = int(bad[0])
        where = "" if points is None else f" at {_point_at(points, i)}"
        raise SingularMetric(f"metric condition number {np.ravel(cond)[i]:.3g}{where}")
    try:
        return np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc


def _sum(terms):
    """Left-to-right sum of arrays.

    Contractions are written as explicit sums of elementwise products, so
    each point's result has one fixed rounding order whatever the batch it
    was evaluated in (a batched einsum may reorder its inner loops).
    """
    return functools.reduce(np.add, terms)


def _christoffel(Ginv, dG):
    """(Gamma^k_ij, T_ijl) with T_ijl = d_i g_jl + d_j g_il - d_l g_ij = 2 Gamma_l,ij."""
    T = dG + np.einsum("...jil->...ijl", dG) - np.einsum("...lij->...ijl", dG)
    d = Ginv.shape[-1]
    return 0.5 * _sum(Ginv[..., :, l, None, None] * T[..., None, :, :, l] for l in range(d)), T


def assemble_curvature(G, dG, ddG, points=None):
    """Christoffel, lowered Riemann, Ricci and scalar from component data.

    Every array carries a leading batch shape B (G is B + (d, d)); points,
    when given, names the offending point if a metric is singular.  The
    lowered tensor comes straight from the second derivatives and the
    Christoffel symbols, with W_abce = (d_a d_b g_ce + d_c d_e g_ab)/2 +
    g_zy Gamma^z_ab Gamma^y_ce and R_ijkl = W_jlik - W_jkil, which is the
    constant-curvature convention K(g_il g_jk - g_ik g_jl).
    """
    d = G.shape[-1]
    Ginv = _inverse(G, points)
    Gamma, T = _christoffel(Ginv, dG)
    # g_zy Gamma^y_ce = T_cez / 2
    quad = _sum(Gamma[..., z, :, :, None, None] * (0.5 * T[..., None, None, :, :, z]) for z in range(d))
    W = 0.5 * (ddG + np.einsum("...ceab->...abce", ddG)) + quad
    r_low = np.einsum("...jlik->...ijkl", W) - np.einsum("...jkil->...ijkl", W)
    # Ric_jk = g^il R_ijkl
    ricci = _sum(Ginv[..., i, l, None, None] * r_low[..., i, :, :, l] for i in range(d) for l in range(d))
    scal = _sum(Ginv[..., s, n] * ricci[..., s, n] for s in range(d) for n in range(d))
    return Ginv, Gamma, r_low, ricci, scal


def _amax(x, axes: int):
    """max |x| over the last `axes` axes (the per-point maximum of a batched tensor)."""
    return np.max(np.abs(x), axis=tuple(range(-axes, 0)))


def _per_point(x):
    """A float for a single point, the array itself for a batch."""
    return float(x) if np.ndim(x) == 0 else x


@record(computed=("symmetry_max", "bianchi_max"))
class CurvatureReport:
    """Curvature data with symmetry and Bianchi checks built in.

    A single-point report has a tuple point and float scalars.  The batch
    report of :func:`curvature_reports` has a leading axis N on every
    field: point (N, d), metric (N, d, d), scalar (N,), and so on.
    """

    point: tuple | np.ndarray
    metric: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    einstein_residual: float | np.ndarray | None
    symmetry_max: float | np.ndarray
    bianchi_max: float | np.ndarray

    def __post_init__(self):
        R = self.riemann
        scale = np.maximum(np.maximum(_amax(R, 4), _amax(self.metric, 2) ** 2), 1e-300)
        sym = np.maximum(
            np.maximum(_amax(R + np.einsum("...jikl->...ijkl", R), 4), _amax(R + np.einsum("...ijlk->...ijkl", R), 4)),
            _amax(R - np.einsum("...klij->...ijkl", R), 4),
        )
        bianchi = _amax(R + np.einsum("...iklj->...ijkl", R) + np.einsum("...iljk->...ijkl", R), 4)
        object.__setattr__(self, "symmetry_max", _per_point(sym / scale))
        object.__setattr__(self, "bianchi_max", _per_point(bianchi / scale))
        sym, bianchi = np.ravel(self.symmetry_max), np.ravel(self.bianchi_max)
        failed = np.flatnonzero((sym > 1e-8) | (bianchi > 1e-8))
        if failed.size:
            i = int(failed[0])
            where = _point_at(self.point, i)
            if sym[i] > 1e-8:
                raise CurvatureCheckError(f"Riemann symmetry violation {sym[i]:.3e} at {where}")
            raise CurvatureCheckError(f"first Bianchi violation {bianchi[i]:.3e} at {where}")


def _report(points: np.ndarray, G, dG, ddG, lam) -> CurvatureReport:
    """Report of one point (points of shape (d,)) or of a batch (shape (N, d))."""
    _, Gamma, r_low, ricci, scal = assemble_curvature(G, dG, ddG, points)
    residual = None if lam is None else _per_point(_amax(ricci - lam * G, 2) / _amax(G, 2))
    return CurvatureReport(
        point=tuple(points.tolist()) if points.ndim == 1 else points,
        metric=G,
        christoffel=Gamma,
        riemann=r_low,
        ricci=ricci,
        scalar=_per_point(scal),
        einstein_residual=residual,
    )


def _check_domain(chart: ChartMetric, points):
    for pt in points:
        if not chart.in_domain(pt):
            raise ValueError(f"point {tuple(float(x) for x in pt)} outside chart domain")


def curvature_reports(chart: ChartMetric, points, lam: float | None = None) -> CurvatureReport:
    """Batch curvature report of N points (shape (N, d)) from one jet pass.

    Every operation acts point by point, so entry i of every field is
    bit-equal to the report of point i evaluated alone.  A singular metric
    or a failed check raises at the first offending point, naming it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != chart.dim:
        raise ValueError(f"points must have shape (N, {chart.dim}), got {pts.shape}")
    _check_domain(chart, pts)
    G, dG, ddG = metric_derivatives_jet(chart, pts)
    return _report(pts, G, dG, ddG, lam)


def curvature_report(chart: ChartMetric, point, lam: float | None = None) -> CurvatureReport:
    """Full curvature data at a point.

    Runs the code of :func:`curvature_reports` with an empty batch shape.
    """
    pt = np.asarray(point, dtype=float)
    _check_domain(chart, [pt])
    return _report(pt, *metric_derivatives_jet(chart, pt), lam)


BLOCK_POINTS = 128
SCALAR_COLUMNS = ("einstein_residual", "scalar", "bianchi_max", "symmetry_max")


def point_scalars(chart: ChartMetric, points, lam: float) -> np.ndarray:
    """The SCALAR_COLUMNS of every point, shape (N, 4).

    Points are evaluated in blocks of at most BLOCK_POINTS, and each block
    is reduced to these columns before the next starts, so memory does not
    grow with N beyond the (N, 4) result.  Rows do not depend on the block
    size.
    """
    pts = np.asarray(points, dtype=float)
    out = np.empty((len(pts), len(SCALAR_COLUMNS)))
    for start in range(0, len(pts), BLOCK_POINTS):
        stop = start + BLOCK_POINTS
        rep = curvature_reports(chart, pts[start:stop], lam)
        out[start:stop] = np.stack([getattr(rep, name) for name in SCALAR_COLUMNS], axis=-1)
    return out


def christoffel(chart: ChartMetric, point) -> np.ndarray:
    return curvature_report(chart, point).christoffel


def riemann(chart: ChartMetric, point) -> np.ndarray:
    return curvature_report(chart, point).riemann


def einstein_residual(chart: ChartMetric, lam: float, point) -> float:
    """max_ij |Ric_ij - lam g_ij| / max_ij |g_ij| at the point."""
    return curvature_report(chart, point, lam=lam).einstein_residual


def fd_oracle(chart: ChartMetric, point, step: float = 1e-3) -> CurvatureReport:
    """Curvature via 4th-order finite differences only; the cross-check path."""
    pt = np.asarray(point, dtype=float)
    _check_domain(chart, [pt])
    return _report(pt, *metric_derivatives_fd(chart, pt, step), None)


def sectional(chart: ChartMetric, point, x, y) -> float:
    """Sectional curvature of the plane spanned by tangent vectors x, y."""
    rep = curvature_report(chart, point)
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
        np.linalg.cholesky(chart.metric_values(point))
        return True
    except np.linalg.LinAlgError:
        return False


# -- base-surface data -------------------------------------------------


def _base_blocks(lam: float, u, v):
    """Conformal factor of ghat and the components of the connection form.

    ghat = (4/lam)(du^2+dv^2)/(1+u^2+v^2)^2 has Gauss curvature lam, so
    Ric(ghat) = lam ghat; theta = dpsi + a_u du + a_v dv solves
    d(theta) = -2 omega with omega the area form of ghat.
    """
    q = u * u + v * v
    one_plus = 1.0 + q
    h = (4.0 / lam) / (one_plus * one_plus)
    a_u = (4.0 / lam) * v / one_plus
    a_v = -(4.0 / lam) * u / one_plus
    return h, a_u, a_v


def connection_curvature_residual(lam: float, u: float, v: float) -> float:
    """|dA + 2 omega| at (u, v), evaluated by jet exterior differentiation."""
    ju = Jet2.variable(u, 0, 2)
    jv = Jet2.variable(v, 1, 2)
    h, a_u, a_v = _base_blocks(lam, ju, jv)
    # dA = (d_u a_v - d_v a_u) du ^ dv ; omega = h du ^ dv
    curl = a_v.grad[0] - a_u.grad[1]
    return abs(curl + 2.0 * h.value)


def _fibration_chart(n: int, coords: tuple, inner: float, radial: Callable, lam: float, label: str) -> ChartMetric:
    """The chart (x, psi, u, v) of the fibration a dx^2 + b theta^2 + c ghat.

    radial(x) returns the radial coefficients (a, b, c) at the radial
    coordinate x; theta = dpsi + A has psi-independent components.
    Domain: x > inner, psi in (0, 2 pi), (u, v) in the open unit disk.
    """
    if n != 1:
        raise UnsupportedDimension("the chart verification covers n = 1")

    def metric(pt):
        x, _, u, v = pt
        a_coef, b_coef, c_coef = radial(x)
        h, a_u, a_v = _base_blocks(lam, u, v)
        ch = c_coef * h
        return [
            [a_coef, 0.0, 0.0, 0.0],
            [0.0, b_coef, b_coef * a_u, b_coef * a_v],
            [0.0, b_coef * a_u, b_coef * a_u * a_u + ch, b_coef * a_u * a_v],
            [0.0, b_coef * a_v, b_coef * a_u * a_v, b_coef * a_v * a_v + ch],
        ]

    def in_domain(pt):
        x, psi, u, v = (float(t) for t in pt)
        return x > inner and 0.0 < psi < 2 * math.pi and u * u + v * v < 1.0

    return ChartMetric(4, coords, metric, in_domain, label=label)


def page_pope_chart(params: FamilyParams) -> ChartMetric:
    """The chart (r, psi, u, v) of the family metric W/P dr^2 + c^2 P/W theta^2 + c W ghat, W = r^2 - 1."""
    p = solve_profile(params)
    with _rounding_to_floats(f"page-pope n={params.n} lambda={params.lam} c={params.c} Lambda={params.Lambda} r1={params.r1}"):
        pcoeffs = {e: float(c) for e, c in p.items()}
        cf = float(params.c)
        lamf = float(params.lam)
        r1f = float(params.r1)

    def radial(r):
        w = r * r - 1.0
        pval = laurent_eval(pcoeffs, r)
        return w / pval, cf * cf * pval / w, cf * w

    return _fibration_chart(params.n, ("r", "psi", "u", "v"), r1f, radial, lamf, f"page-pope n={params.n} r1={params.r1}")


def rescaled_chart(profile: RescaledProfile) -> ChartMetric:
    """The limit chart (rho, psi, u, v): U^-1 drho^2 + U rho^2 theta^2 + rho^2 ghat."""
    with _rounding_to_floats(f"rescaled lambda={profile.lam} rho1^2={profile.rho1_sq}"):
        ucoeffs = {e: float(c) for e, c in profile.as_laurent().items()}
        lamf = float(profile.lam)
        rho1f = profile.rho1

    def radial(rho):
        uval = laurent_eval(ucoeffs, rho)
        rho_sq = rho * rho
        return 1.0 / uval, uval * rho_sq, rho_sq

    return _fibration_chart(profile.n, ("rho", "psi", "u", "v"), rho1f, radial, lamf, f"rescaled rho1^2={profile.rho1_sq}")


def sphere_chart(lam: float) -> ChartMetric:
    """The base surface alone: ghat with Gauss curvature lam on the (u, v) disk."""

    lamf = float(lam)

    def metric(x):
        h = _base_blocks(lamf, *x)[0]
        return [[h, 0.0], [0.0, h]]

    def in_domain(pt):
        u, v = (float(t) for t in pt)
        return u * u + v * v < 4.0

    return ChartMetric(2, ("u", "v"), metric, in_domain, label=f"sphere lam={lam}")


def euclidean_chart(dim: int = 4) -> ChartMetric:
    def metric(x):
        return [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    return ChartMetric(dim, tuple(f"x{i}" for i in range(dim)), metric, lambda pt: True, label=f"euclidean d={dim}")


def scaled_chart(chart: ChartMetric, factor: float) -> ChartMetric:
    """The same chart with metric multiplied by a positive constant."""
    if factor <= 0:
        raise ValueError("factor must be positive")

    def metric(x):
        rows = chart.metric(x)
        return [[factor * e for e in row] for row in rows]

    return ChartMetric(chart.dim, chart.coords, metric, chart.in_domain, label=f"{chart.label} x{factor}")


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

    def in_domain(pt):
        x0, x1, U, V = (float(t) for t in pt)
        Q = U * U + V * V
        if Q <= 1.0:
            return False
        return chart.in_domain((x0, x1, U / Q, V / Q))

    return ChartMetric(4, chart.coords, metric, in_domain, label=f"{chart.label} inverted")
