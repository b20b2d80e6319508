"""Chart-based numerical curvature engine.

A :class:`ChartMetric` is a coordinate chart whose metric components are
written in generic arithmetic, so the same component function can be
evaluated on plain floats or on :class:`~pelab.jets.Jet2` variables
(for exact-to-rounding first and second derivatives).  From the component data

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


class UnsupportedDimension(ValueError):
    """Chart constructor called with a base dimension it does not provide."""


class CurvatureCheckError(AssertionError):
    """Riemann symmetries or first Bianchi identity failed at construction."""


class BeyondFloatRange(ValueError):
    """An exact value of a chart, or a float the engine computes from it, does not fit in a float."""


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
    component is constant.  in_domain maps float points of shape B + (dim,)
    to booleans of shape B.  data holds the floats a chart was built from
    (a page-pope chart: P's coefficients, c, lambda and r1).
    """

    dim: int
    coords: tuple
    metric: Callable
    in_domain: Callable
    label: str = ""
    data: tuple = ()


def metric_derivatives_jet(chart: ChartMetric, points):
    """(G, dG, ddG) from one jet evaluation of the metric components.

    points has shape B + (d,): one point, or N points for B = (N,).  The
    results have shapes B + (d, d), B + (d, d, d) and B + (d, d, d, d).
    """
    d = chart.dim
    pts = np.asarray(points, dtype=float)
    batch = pts.shape[:-1]
    rows = chart.metric(seed_point(pts))
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


def _point_at(points, i: int) -> tuple:
    """Point i of a (d,) or (N, d) point array, as a tuple of floats."""
    pts = np.asarray(points, dtype=float)
    return tuple(pts.reshape(-1, pts.shape[-1])[i].tolist())


def _inverse(G: np.ndarray, points) -> np.ndarray:
    """Inverse of every metric in the batch, guarded point by point.

    The first point in batch order whose condition number exceeds 1e12
    (inf for a singular metric) raises SingularMetric naming that point.
    """
    cond = np.linalg.cond(G)
    bad = np.flatnonzero(~(cond <= 1e12))
    if bad.size:
        i = int(bad[0])
        raise SingularMetric(f"metric condition number {np.ravel(cond)[i]:.3g} at {_point_at(points, i)}")
    return np.linalg.inv(G)


def _sum(terms):
    """Left-to-right sum of fresh arrays, accumulated in place into the first.

    Contractions are written as explicit sums of elementwise products, so
    each point's result has one fixed rounding order whatever the batch it
    was evaluated in (a batched einsum may reorder its inner loops).
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _christoffel(Ginv, dG):
    """(Gamma^k_ij, T_ijl) with T_ijl = d_i g_jl + d_j g_il - d_l g_ij = 2 Gamma_l,ij."""
    T = dG + np.einsum("...jil->...ijl", dG) - np.einsum("...lij->...ijl", dG)
    d = Ginv.shape[-1]
    return 0.5 * _sum(Ginv[..., :, l, None, None] * T[..., None, :, :, l] for l in range(d)), T


def assemble_curvature(G, dG, ddG, points):
    """Christoffel, lowered Riemann, Ricci and scalar from component data.

    Every array carries a leading batch shape B (G is B + (d, d)); points
    (shape B + (d,)) names the offending point if a metric is singular.  The
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
    return Gamma, r_low, ricci, scal


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

    einstein_residual is max_ij |Ric_ij - lam g_ij| / max_ij |g_ij| for the
    lam the report was asked for (one for the batch, or one per point), and
    None without one.
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
    Gamma, r_low, ricci, scal = assemble_curvature(G, dG, ddG, points)
    if lam is not None:
        lam = np.asarray(lam, dtype=float)[..., None, None]
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
    """Raise ValueError naming the first point of the (N, d) batch outside the chart, from one in_domain call."""
    pts = np.asarray(points, dtype=float)
    outside = np.flatnonzero(np.logical_not(chart.in_domain(pts)))
    if outside.size:
        raise ValueError(f"point {_point_at(pts, int(outside[0]))} outside chart domain")


def curvature_reports(chart: ChartMetric, points, lam: float | np.ndarray | None = None) -> CurvatureReport:
    """Batch curvature report of N points (shape (N, d)) from one jet pass.

    Every operation acts point by point, so entry i of every field is
    bit-equal to the report of point i evaluated alone.  lam is one float,
    or an (N,) array with one Einstein constant per point.  A singular metric
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


def point_scalars(chart: ChartMetric, points, lam: float | np.ndarray) -> np.ndarray:
    """The SCALAR_COLUMNS of every point, shape (N, 4).

    Points are evaluated in blocks of at most BLOCK_POINTS, and each block
    is reduced to these columns before the next starts, so memory does not
    grow with N beyond the (N, 4) result.  Rows do not depend on the block
    size.  verify evaluates its chart here; :func:`row_maxima` evaluates a
    block of whole rows here, or one row longer than a block.  A chart or
    lam with one value per point (:func:`page_pope_block`) describes one
    block, so it takes at most BLOCK_POINTS points.

    A float fault (overflow, division by zero, invalid) raises BeyondFloatRange.
    """
    pts = np.asarray(points, dtype=float)
    out = np.empty((len(pts), len(SCALAR_COLUMNS)))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for start in range(0, len(pts), BLOCK_POINTS):
                stop = start + BLOCK_POINTS
                rep = curvature_reports(chart, pts[start:stop], lam)
                out[start:stop] = np.stack([getattr(rep, name) for name in SCALAR_COLUMNS], axis=-1)
    except FloatingPointError as exc:
        raise BeyondFloatRange(f"{chart.label}: a float of the curvature engine leaves the float range ({exc})") from None
    return out


def _block_maxima(rows: list) -> list[float]:
    """The max Einstein residual of each (chart, points, lam) row, from one engine pass over their page_pope_block."""
    if not rows:
        return []
    charts, points, lams = zip(*rows)
    counts = [len(row_points) for row_points in points]
    try:
        columns = point_scalars(page_pope_block(charts, counts), np.concatenate(points), np.repeat(lams, counts))
    except (SingularMetric, CurvatureCheckError, BeyondFloatRange):
        # A block meets a float fault or a singular metric before any
        # failed check; each row alone raises its own first failure, so
        # the first failing row names what a row-by-row evaluation names.
        for row in rows:
            point_scalars(*row)
        raise
    return [float(row[:, 0].max()) for row in np.split(columns, np.cumsum(counts)[:-1])]


def row_maxima(rows) -> list[float]:
    """The max Einstein residual of each (chart, points, lam) row, in order.

    rows is an iterable of page-pope rows: a chart, its (n, 4) points and
    its Einstein constant.  A row joins the pending block while the block
    stays within BLOCK_POINTS points; otherwise the pending block is
    evaluated first, on one page_pope_block chart.  A row longer than a
    block is evaluated alone on its own chart.  Rows are drawn one at a
    time and kept only as their maximum, so memory does not grow with the
    number of rows.  When rows raises, the pending rows are evaluated
    first, so a failure among the earlier rows is the one reported.
    """
    maxima, pending = [], []
    try:
        for chart, points, lam in rows:
            if sum(len(row[1]) for row in pending) + len(points) > BLOCK_POINTS:
                block, pending = pending, []
                maxima += _block_maxima(block)
            if len(points) > BLOCK_POINTS:
                maxima.append(float(point_scalars(chart, points, lam)[:, 0].max()))
            else:
                pending.append((chart, points, lam))
    except Exception:
        _block_maxima(pending)  # raises an earlier row's failure in place of this error
        raise
    return maxima + _block_maxima(pending)


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


def _check_fibration(n: int, lam: float, label: str):
    """The charts cover the base dimension n = 1, and ghat needs a float lam > 0."""
    if n != 1:
        raise UnsupportedDimension("the chart verification covers n = 1")
    if lam == 0.0:  # ghat divides by lam; an exact lam > 0 can underflow
        raise BeyondFloatRange(f"{label}: lambda > 0 rounds to 0.0 as a float")


def _fibration_chart(coords: tuple, inner, radial: Callable, lam, label: str, data: tuple = ()) -> ChartMetric:
    """The chart (x, psi, u, v) of the fibration a dx^2 + b theta^2 + c ghat.

    radial(x) returns the radial coefficients (a, b, c) at the radial
    coordinate x; theta = dpsi + A has psi-independent components.
    Domain: x > inner, psi in (0, 2 pi), (u, v) in the open unit disk.
    inner, lam and the data behind radial are floats, or arrays with one
    entry per point of the one batch the chart is evaluated on.
    """

    def metric(pt):
        x, _, u, v = pt
        a_coef, b_coef, c_coef = radial(x)
        h, a_u, a_v = _base_blocks(lam, u, v)
        ch = c_coef * h
        b_u, b_v = b_coef * a_u, b_coef * a_v
        b_uv = b_u * a_v
        return [
            [a_coef, 0.0, 0.0, 0.0],
            [0.0, b_coef, b_u, b_v],
            [0.0, b_u, b_u * a_u + ch, b_uv],
            [0.0, b_v, b_uv, b_v * a_v + ch],
        ]

    def in_domain(points):
        x, psi, u, v = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        # every comparison is False on NaN, so a NaN coordinate lies outside
        return (x > inner) & (0.0 < psi) & (psi < 2 * math.pi) & (u * u + v * v < 1.0)

    return ChartMetric(4, coords, metric, in_domain, label=label, data=data)


def _page_pope(data: tuple, label: str) -> ChartMetric:
    """The page-pope chart of data = (P's (exponent, coefficient) pairs in decreasing exponent order, c, lambda, r1)."""
    terms, cf, lamf, r1f = data
    pcoeffs = dict(terms)

    def radial(r):
        w = r * r - 1.0
        pval = laurent_eval(pcoeffs, r)
        return w / pval, cf * cf * pval / w, cf * w

    return _fibration_chart(("r", "psi", "u", "v"), r1f, radial, lamf, label, data)


def page_pope_chart(params: FamilyParams) -> ChartMetric:
    """The chart (r, psi, u, v) of the family metric W/P dr^2 + c^2 P/W theta^2 + c W ghat, W = r^2 - 1."""
    p = solve_profile(params)
    with _rounding_to_floats(f"page-pope n={params.n} lambda={params.lam} c={params.c} Lambda={params.Lambda} r1={params.r1}"):
        data = (tuple((e, float(c)) for e, c in p.items()), float(params.c), float(params.lam), float(params.r1))
    label = f"page-pope n={params.n} r1={params.r1}"
    _check_fibration(params.n, data[2], label)
    return _page_pope(data, label)


def page_pope_block(charts: list[ChartMetric], counts: list[int]) -> ChartMetric:
    """One chart over consecutive runs of points: counts[i] points of the page-pope chart charts[i], in order.

    Each datum becomes an array with one entry per point: P's coefficients
    over the union of the charts' exponents, c, lambda and r1.  A chart
    without a term gets 0.0 in its slot, and adding that zero term is
    exact, so every point's metric is bit-equal to the one its own chart
    gives.  Evaluate the block on exactly those sum(counts) points.
    """
    terms = [dict(chart.data[0]) for chart in charts]
    exponents = sorted(set().union(*terms), reverse=True)
    rows = [[coeffs.get(e, 0.0) for e in exponents] + list(chart.data[1:]) for coeffs, chart in zip(terms, charts)]
    fields = np.repeat(np.array(rows), counts, axis=0).T
    return _page_pope((tuple(zip(exponents, fields)), *fields[len(exponents):]), "")


def rescaled_chart(profile: RescaledProfile) -> ChartMetric:
    """The limit chart (rho, psi, u, v): U^-1 drho^2 + U rho^2 theta^2 + rho^2 ghat."""
    with _rounding_to_floats(f"rescaled lambda={profile.lam} rho1^2={profile.rho1_sq}"):
        ucoeffs = {e: float(c) for e, c in profile.as_laurent().items()}
        lamf = float(profile.lam)
        rho1f = profile.rho1
    label = f"rescaled rho1^2={profile.rho1_sq}"
    _check_fibration(profile.n, lamf, label)

    def radial(rho):
        uval = laurent_eval(ucoeffs, rho)
        rho_sq = rho * rho
        return 1.0 / uval, uval * rho_sq, rho_sq

    return _fibration_chart(("rho", "psi", "u", "v"), rho1f, radial, lamf, label)
