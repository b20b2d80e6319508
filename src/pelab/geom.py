"""Chart-based curvature engine, in floats or exactly in Fractions.

A :class:`ChartMetric` is a coordinate chart whose metric components are
written in generic arithmetic, so the same component function can be
evaluated on plain numbers or on :class:`~pelab.jets.Jet2` variables
(for their first and second derivatives).  From the component data

    G[i,j],   dG[k,i,j] = d_k g_ij,   ddG[k,l,i,j] = d_k d_l g_ij

the standard Levi-Civita/curvature formulas produce Christoffel symbols,
the lowered Riemann tensor, Ricci, scalar curvature and derived checks.
The engine evaluates batches of N points of float64 or of Fractions (exact),
and every array it builds carries the point axis last (G is (d, d, N)).
A singular metric or a failed check raises a pelab.VerificationFailure.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

# jets is imported (and so compiled) before numpy loads, as cmd_verify
# imports geom before numpy: compiled on top of numpy's heap, the two
# modules would raise the peak RSS of verify by about 1 MB
from .jets import Jet2, _array, _zeros, laurent_eval, seed_point

import numpy as np

from . import VerificationFailure
from .family import solve_profile
from .records import record

if TYPE_CHECKING:  # annotations only: page-pope charts run without pelab.limits
    from .family import FamilyParams
    from .limits import RescaledProfile


class SingularMetric(VerificationFailure):
    """Metric matrix not invertible (or hopelessly ill-conditioned) at the point."""


class UnsupportedDimension(ValueError):
    """Chart constructor called with a base dimension it does not provide."""


class CurvatureCheckError(VerificationFailure):
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

    metric(point) must accept a sequence of numbers or Jet2 values and
    return a dim x dim nested list; entries may be plain numbers where a
    component is constant.  in_domain maps float points of shape B + (dim,)
    to booleans of shape B.  data holds the numbers a chart was built from
    (a page-pope chart: P's coefficients, c, lambda and r1).  reads lists
    the indices of the coordinates the metric depends on; the others reach
    metric as plain arrays, and the metric's derivatives along them are
    zero.  Floats give a float chart, Fractions an exact one.
    """

    coords: tuple
    metric: Callable
    in_domain: Callable
    reads: tuple
    label: str = ""
    data: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.coords)


def metric_derivatives_jet(chart: ChartMetric, points):
    """(G, dG, ddG) from one jet evaluation of the metric components.

    points has shape (N, d); the results carry the point axis last, as the
    jets do: G[i, j], dG[k, i, j] and ddG[k, l, i, j] have shapes (d, d, N),
    (d, d, d, N) and (d, d, d, d, N), and the points' element type.
    """
    d = chart.dim
    pts = _array(points)
    batch = pts.shape[:-1]
    reads = np.array(chart.reads, dtype=np.intp)
    rows = chart.metric(seed_point(pts, reads))
    G = _zeros((d, d) + batch, pts)
    # the derivatives along reads, placed into dG and ddG once at the end
    grad = _zeros((len(reads), d, d) + batch, pts)
    hess = _zeros((len(reads), len(reads), d, d) + batch, pts)
    for i in range(d):
        for j in range(d):
            e = rows[i][j]
            if isinstance(e, Jet2):
                G[i, j] = e.value
                grad[:, i, j] = e.grad
                hess[:, :, i, j] = e.hess
            else:
                G[i, j] += e  # a constant entry, in the type of the zeros
    dG, ddG = _zeros((d, d, d) + batch, pts), _zeros((d, d, d, d) + batch, pts)
    dG[reads] = grad
    ddG[reads[:, None], reads] = hess
    return G, dG, ddG


def _inverse(G: np.ndarray, points) -> np.ndarray:
    """Inverse of every metric of the (N, d, d) stack G, guarded point by point.

    The first point in batch order whose condition number exceeds 1e12
    (inf for a singular metric) raises SingularMetric naming that point.
    np.linalg.cond runs its SVD only on the points that a cheap bound
    cannot clear: cond(G) <= |G|_F |G^-1|_F <= d^2 max|G| max|G^-1|.  The
    bound is compared in log2, so it cannot overflow, and clears at 1e11,
    which leaves a factor 10 for the error of the computed inverse: a
    cleared point's condition number is below 1e12, so the decisions are
    those of cond on the whole batch.  A batch that inv rejects goes to
    cond whole.  An object stack (Fractions) is inverted exactly instead.
    """
    if G.dtype == object:
        return np.array([_exact_inverse(g, point) for g, point in zip(G, points)], dtype=object).reshape(G.shape)
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        Ginv, suspect = None, np.arange(len(G))
    else:
        d = G.shape[-1]
        bound = 2 * math.log2(d) + np.log2(np.max(np.abs(G), axis=(-2, -1))) + np.log2(np.max(np.abs(Ginv), axis=(-2, -1)))
        suspect = np.flatnonzero(~(bound <= math.log2(1e11)))
    if suspect.size:
        cond = np.linalg.cond(G[suspect])
        bad = np.flatnonzero(~(cond <= 1e12))
        if bad.size:
            raise SingularMetric(f"metric condition number {cond[bad[0]]:.3g} at {tuple(points[suspect[bad[0]]].tolist())}")
    return np.linalg.inv(G) if Ginv is None else Ginv


def _exact_inverse(g, point) -> list:
    """Inverse of one metric of Fractions by Gauss-Jordan elimination; a singular one raises SingularMetric."""
    d = len(g)
    rows = [list(row) + [Fraction(i == j) for j in range(d)] for i, row in enumerate(g)]
    for k in range(d):
        p = next((i for i in range(k, d) if rows[i][k] != 0), None)
        if p is None:
            raise SingularMetric(f"metric is singular at {tuple(point.tolist())}")
        top = [x / rows[p][k] for x in rows[p]]
        rows[p] = rows[k]
        rows = [top if i == k else [x - row[k] * y for x, y in zip(row, top)] for i, row in enumerate(rows)]
    return [row[d:] for row in rows]


def _sum(terms):
    """Left-to-right sum ((t0 + t1) + t2) + ... of arrays, accumulated in place into a copy of t0.

    Contractions are written as elementwise products summed in a fixed
    order, so each point's result has one rounding order whatever the batch
    it was evaluated in (a batched einsum may reorder its inner loops).
    """
    terms = iter(terms)
    total = next(terms).copy()
    for term in terms:
        total += term
    return total


def _christoffel(Ginv, dG, products):
    """(Gamma^k_ij, T_ijl) with T_ijl = d_i g_jl + d_j g_il - d_l g_ij = 2 Gamma_l,ij, points last.

    products, a (d, d, d, d, N) buffer, receives every g^kl T_ijl.
    """
    T = dG + np.einsum("jil...->ijl...", dG) - np.einsum("lij...->ijl...", dG)
    np.multiply(Ginv[:, None, None], T, out=products)
    return _sum(products[:, :, :, l] for l in range(len(Ginv))) / 2, T


def assemble_curvature(G, dG, ddG, points):
    """Christoffel, lowered Riemann, Ricci and scalar from component data.

    Every array carries the batch axis N last (G is (d, d, N)), so each
    elementwise operation is one contiguous loop over the points; points
    (shape (N, d)) names the offending point if a metric is singular.  The
    lowered tensor comes straight from the second derivatives and the
    Christoffel symbols, with W_abce = (d_a d_b g_ce + d_c d_e g_ab)/2 +
    g_zy Gamma^z_ab Gamma^y_ce and R_ijkl = W_jlik - W_jkil, which is the
    constant-curvature convention K(g_il g_jk - g_ik g_jl).
    """
    d = G.shape[0]
    # LAPACK takes the metrics as an (N, d, d) stack; the inverse comes back points last
    Ginv = np.ascontiguousarray(np.moveaxis(_inverse(np.moveaxis(G, -1, 0), points), 0, -1))
    # Two (d, d, d, d, N) buffers hold every rank-4 array: quad and then
    # r_low in one; the products g^kl T_ijl, each product of quad, W, and
    # the products g^il R_ijkl in turn in the other.
    quad, W = np.empty_like(ddG), np.empty_like(ddG)
    Gamma, T = _christoffel(Ginv, dG, W)
    T /= 2  # g_zy Gamma^y_ce = T_cez / 2
    np.multiply(Gamma[0, :, :, None, None], T[None, None, :, :, 0], out=quad)
    for z in range(1, d):
        quad += np.multiply(Gamma[z, :, :, None, None], T[None, None, :, :, z], out=W)
    np.add(ddG, np.einsum("ceab...->abce...", ddG), out=W)
    W /= 2
    W += quad
    r_low = np.subtract(np.einsum("jlik...->ijkl...", W), np.einsum("jkil...->ijkl...", W), out=quad)
    # Ric_jk = g^il R_ijkl
    np.multiply(Ginv[:, None, None], r_low, out=W)
    ricci = _sum(W[i, :, :, l] for i in range(d) for l in range(d))
    terms = Ginv * ricci
    scal = _sum(terms[s, n] for s in range(d) for n in range(d))
    return Gamma, r_low, ricci, scal


def _amax(x, axes: int, out=None):
    """max |x| over the first `axes` axes (the per-point maximum of a points-last tensor); |x| goes to out if given."""
    return np.max(np.abs(x, out=out), axis=tuple(range(axes)))


@record(computed=("symmetry_max", "bianchi_max"))
class CurvatureReport:
    """Curvature data of N points with symmetry and Bianchi checks built in.

    point is the (N, d) input and the scalar fields are (N,); the tensor
    fields are the engine's points-last arrays: metric (d, d, N),
    christoffel (d, d, d, N), riemann (d, d, d, d, N) and ricci (d, d, N),
    so point i's tensors are [..., i].  einstein_residual is
    max_ij |Ric_ij - lam g_ij| / max_ij |g_ij| for the lam the report was
    asked for (one for the batch, or one per point), and None without one.
    """

    point: np.ndarray
    metric: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray
    einstein_residual: np.ndarray | None
    symmetry_max: np.ndarray
    bianchi_max: np.ndarray

    def __post_init__(self):
        R = self.riemann
        term = np.empty_like(R)  # each rank-4 term is built here, then reduced in place
        scale = np.maximum(np.maximum(_amax(R, 4, term), _amax(self.metric, 2) ** 2), 1e-300)
        # R + R_ijlk is exactly 0.0 by construction (r_low swaps the operands
        # of one subtraction); tier-1 checks that identity once.
        first_pair = _amax(np.add(R, np.einsum("jikl...->ijkl...", R), out=term), 4, term)
        pair_swap = _amax(np.subtract(R, np.einsum("klij...->ijkl...", R), out=term), 4, term)
        sym = np.maximum(first_pair, pair_swap) / scale
        np.add(R, np.einsum("iklj...->ijkl...", R), out=term)
        term += np.einsum("iljk...->ijkl...", R)
        bianchi = _amax(term, 4, term) / scale
        object.__setattr__(self, "symmetry_max", sym)
        object.__setattr__(self, "bianchi_max", bianchi)
        failed = np.flatnonzero((sym > 1e-8) | (bianchi > 1e-8))
        if failed.size:
            i = int(failed[0])
            where = tuple(self.point[i].tolist())
            if sym[i] > 1e-8:
                raise CurvatureCheckError(f"Riemann symmetry violation {sym[i]:.3e} at {where}")
            raise CurvatureCheckError(f"first Bianchi violation {bianchi[i]:.3e} at {where}")


def _report(points: np.ndarray, G, dG, ddG, lam) -> CurvatureReport:
    """Report of the (N, d) points from their points-last metric data; lam (one, or one per point) broadcasts over the point axis."""
    Gamma, r_low, ricci, scal = assemble_curvature(G, dG, ddG, points)
    residual = None if lam is None else _amax(ricci - lam * G, 2) / _amax(G, 2)
    return CurvatureReport(points, G, Gamma, r_low, ricci, scal, residual)


def _check_domain(chart: ChartMetric, points):
    """Raise ValueError naming the first point of the (N, d) batch outside the chart, from one in_domain call."""
    outside = np.flatnonzero(np.logical_not(chart.in_domain(points)))
    if outside.size:
        raise ValueError(f"point {tuple(np.asarray(points)[outside[0]].tolist())} outside chart domain")


def curvature_reports(chart: ChartMetric, points, lam: float | np.ndarray | None = None) -> CurvatureReport:
    """Batch curvature report of N points (shape (N, d)) from one jet pass.

    Every operation acts point by point, so point i of every field is
    bit-equal to the report of a batch holding point i alone.  lam is one number,
    or an (N,) array with one Einstein constant per point.  A singular metric
    or a failed check raises at the first offending point, naming it.
    """
    pts = _array(points)
    if pts.ndim != 2 or pts.shape[1] != chart.dim:
        raise ValueError(f"points must have shape (N, {chart.dim}), got {pts.shape}")
    _check_domain(chart, pts)
    return _report(pts, *metric_derivatives_jet(chart, pts), lam)


BLOCK_POINTS = 64
SCALAR_COLUMNS = ("einstein_residual", "scalar", "bianchi_max", "symmetry_max")


def point_scalars(chart: ChartMetric, points, lam: float | np.ndarray) -> np.ndarray:
    """The SCALAR_COLUMNS of every point, shape (N, 4).

    Points are evaluated in blocks of at most BLOCK_POINTS, and each block
    is reduced to these columns before the next starts, so memory does not
    grow with N beyond the (N, 4) result.  Rows do not depend on the block
    size.  verify evaluates its chart here, and :func:`row_maxima` a group
    of whole rows, on their page_pope_block or on a lone row's own chart.
    A chart or lam with one value per point (:func:`page_pope_block`)
    describes one block, so it takes at most BLOCK_POINTS points.

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


def _group_maxima(group: list, count: int) -> list[float]:
    """The max Einstein residual of each (chart, points, lam) row of count points: one row on its own chart, several in one pass over their page_pope_block."""
    if len(group) < 2:
        return [float(point_scalars(chart, points, lam)[:, 0].max()) for chart, points, lam in group]
    charts, points, lams = zip(*group)
    columns = point_scalars(page_pope_block(charts, count), np.concatenate(points), np.repeat(lams, count))
    return columns[:, 0].reshape(len(group), count).max(axis=1).tolist()


def row_maxima(rows, count: int) -> list[float]:
    """The max Einstein residual of each (chart, points, lam) row, in order.

    rows is an iterable of page-pope rows of count points each: a chart,
    its (count, 4) points and its Einstein constant.  Rows go in groups of
    max(1, BLOCK_POINTS // count) whole rows, so a group of several rows
    fills at most one block.  Rows are drawn one at a time and kept only
    as their maximum, so memory does not grow with the number of rows.

    Failures follow a row-by-row evaluation: when a group's block (where a
    later row's float fault or singular metric can come first) or rows
    raises, the group's rows run alone, in order, so the first failing row
    raises its own failure.  A lone row has run alone, so it does not rerun.
    """
    size = max(1, BLOCK_POINTS // count)
    maxima, group, alone = [], [], size == 1
    try:
        for row in rows:
            group.append(row)
            if len(group) == size:
                maxima += _group_maxima(group, count)
                group = []
        alone = len(group) == 1
        maxima += _group_maxima(group, count)
    except Exception:
        if not alone:
            for row in group:
                point_scalars(*row)
        raise
    return maxima


# -- base-surface data -------------------------------------------------


def _base_blocks(lam: float, u, v):
    """Conformal factor of ghat and the components of the connection form.

    ghat = (4/lam)(du^2+dv^2)/(1+u^2+v^2)^2 has Gauss curvature lam, so
    Ric(ghat) = lam ghat; theta = dpsi + a_u du + a_v dv solves
    d(theta) = -2 omega with omega the area form of ghat.
    """
    q = u * u + v * v
    one_plus = 1 + q
    h = (4 / lam) / (one_plus * one_plus)
    a_u = (4 / lam) * v / one_plus
    a_v = -(4 / lam) * u / one_plus
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
            [a_coef, 0, 0, 0],
            [0, b_coef, b_u, b_v],
            [0, b_u, b_u * a_u + ch, b_uv],
            [0, b_v, b_uv, b_v * a_v + ch],
        ]

    def in_domain(points):
        x, psi, u, v = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        # every comparison is False on NaN, so a NaN coordinate lies outside
        return (x > inner) & (0.0 < psi) & (psi < 2 * math.pi) & (u * u + v * v < 1.0)

    return ChartMetric(coords, metric, in_domain, reads=(0, 2, 3), label=label, data=data)


def _page_pope(data: tuple, label: str) -> ChartMetric:
    """The page-pope chart of data = (P's (exponent, coefficient) pairs in decreasing exponent order, c, lambda, r1)."""
    terms, cf, lamf, r1f = data
    pcoeffs = dict(terms)

    def radial(r):
        w = r * r - 1
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


def page_pope_block(charts: list[ChartMetric], count: int) -> ChartMetric:
    """One chart over consecutive rows of points: count points of the page-pope chart charts[i] for each i, in order.

    Each datum becomes an array with one entry per point: P's coefficients
    over the union of the charts' exponents, c, lambda and r1.  A chart
    without a term gets 0.0 in its slot, and adding that zero term is
    exact, so every point's metric is bit-equal to the one its own chart
    gives.  Evaluate the block on exactly those len(charts) * count points.
    """
    terms = [dict(chart.data[0]) for chart in charts]
    exponents = sorted(set().union(*terms), reverse=True)
    rows = [[coeffs.get(e, 0.0) for e in exponents] + list(chart.data[1:]) for coeffs, chart in zip(terms, charts)]
    fields = np.repeat(np.array(rows), count, axis=0).T
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
        return 1 / uval, uval * rho_sq, rho_sq

    return _fibration_chart(("rho", "psi", "u", "v"), rho1f, radial, lamf, label)
