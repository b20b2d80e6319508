"""Closed-form construction of a cohomogeneity-one Einstein metric family.

The family lives on a complex line bundle over a Kaehler-Einstein base
(M, ghat) with Ric(ghat) = lam * ghat, dim_C M = n.  Fixing constants
c > 0, Lambda < 0 and a root radius r1 >= 1, the radial profile
polynomial P(r) is the exact solution of

    d/dr ( r^-1 P ) = r^-2 [ |Lambda| (r^2-1)^(n+1) + (lam/c) (r^2-1)^n ],
    P(r1) = 0,

and on {r > r1} the metric

    g = (r^2-1)^n P^-1 dr^2  +  c^2 P (r^2-1)^-n theta^2  +  c (r^2-1) ghat

satisfies Ric(g) = Lambda * g.  For r1 > 1 the zero section is an edge
(cone angle 2*pi*alpha); for r1 = 1 it collapses to an isolated conic
point.  Everything in this module is exact rational arithmetic; floats
enter the package only through the curvature engine.

Several constants attached to this family circulate in two inequivalent
closed forms (the edge base coefficient beta^2, the smooth-cone value of
c, the conic base coefficient, the rescaled-limit inner radius).  For
each, this module computes the first-principles value, keeps the other
printed form alongside it, and uses an exact jet expansion as arbiter.
No candidate is silently preferred.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from .laurent import LaurentPoly, _coerce
from .records import record


class AuditMismatch(AssertionError):
    """Two exact routes to the same quantity disagreed (implementation bug)."""


class ConicCase(ValueError):
    """Operation requires r1 > 1 but the family is conic (r1 = 1)."""


class EdgeCase(ValueError):
    """Operation requires r1 = 1 but the family has an edge (r1 > 1)."""


class NoSmoothMetric(ValueError):
    """No c > 0 gives cone angle 2*pi at this (lam, r1)."""


def _check_base(n, lam):
    """The base (M, ghat) of FamilyParams and limits.RescaledProfile: n a positive int, lam > 0."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")


@record
class FamilyParams:
    """One member of the metric family.

    n    complex dimension of the base M (n >= 1)
    lam  Einstein constant of the base, Ric(ghat) = lam * ghat  (lam > 0)
    c    fibre scale (c > 0)
    Lambda  Einstein constant of the total metric (Lambda < 0)
    r1   root radius (r1 >= 1); r1 = 1 is the conic case
    """

    n: int
    lam: Fraction
    c: Fraction
    Lambda: Fraction
    r1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", _coerce(self.lam))
        object.__setattr__(self, "c", _coerce(self.c))
        object.__setattr__(self, "Lambda", _coerce(self.Lambda))
        object.__setattr__(self, "r1", _coerce(self.r1))
        _check_base(self.n, self.lam)
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.Lambda >= 0:
            raise ValueError(f"Lambda must be < 0, got {self.Lambda}")
        if self.r1 < 1:
            raise ValueError(f"r1 must be >= 1, got {self.r1}")

    @property
    def abs_Lambda(self) -> Fraction:
        return -self.Lambda

    @property
    def is_conic(self) -> bool:
        return self.r1 == 1

    def as_dict(self) -> dict:
        """JSON-friendly record; exact rationals as 'p/q' strings."""
        return {
            "n": self.n,
            "lambda": str(self.lam),
            "c": str(self.c),
            "Lambda": str(self.Lambda),
            "r1": str(self.r1),
        }


@record
class EdgeModel:
    """Near-edge model  scale * ( ds^2 + alpha^2 s^2 theta^2 + beta^2 ghat ).

    Both circulating candidates for beta^2 are kept:
    beta_sq_derived = alpha (r1^2-1)/2 comes out of the expansion,
    beta_sq_paper   = alpha^2 (r1^2-1)/2 is the printed form.
    expand_at_edge arbitrates.
    """

    scale: Fraction
    alpha: Fraction
    beta_sq_derived: Fraction
    beta_sq_paper: Fraction


@record
class ConicModel:
    """Conic model  ds^2 + s^2 ( theta_coeff theta^2 + base_coeff ghat ).

    k_leading is the exact leading Taylor coefficient of P at r = 1
    (P(1+u) = k_leading u^(n+1) + ...), read as P.taylor(1, n + 1);
    k_quoted = 2^(n+1)/(n+1) is the printed constant, which matches only
    when lam/c = 2.  base_coeff is kept in both circulating forms, the
    jet-derived lam/(2n+2) and the printed c*lam/(2n+2).
    """

    theta_coeff: Fraction
    base_coeff_derived: Fraction
    base_coeff_paper: Fraction
    k_leading: Fraction
    k_quoted: Fraction


# -- the profile polynomial ---------------------------------------------


#: Bounds of the two profile caches.  Every row of a sweep keeps one
#: antiderivative key and asks for the same P two or three times in a row.
_ANTIDERIVATIVE_CACHE_SIZE = 16
_PROFILE_CACHE_SIZE = 32


def _w(r1: Fraction) -> Fraction:
    """W = r1^2 - 1 in one step: r1 = a/b in lowest terms gives (a^2 - b^2)/b^2, also in lowest terms."""
    a, b = r1.numerator, r1.denominator
    return Fraction(a * a - b * b, b * b)


def _r2m1(n: int) -> LaurentPoly:
    """(r^2 - 1)^n by the binomial theorem."""
    return LaurentPoly({2 * k: (-1) ** (n - k) * comb(n, k) for k in range(n + 1)})


@functools.lru_cache(maxsize=_ANTIDERIVATIVE_CACHE_SIZE)
def _rhs_antiderivative(n: int, abs_Lambda: Fraction, lam_over_c: Fraction) -> LaurentPoly:
    """The antiderivative with zero constant term of the rhs of the profile ODE; r1 does not enter it."""
    return (LaurentPoly.term(1, -2) * (abs_Lambda * _r2m1(n + 1) + lam_over_c * _r2m1(n))).antiderivative()


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _profile(params: FamilyParams) -> LaurentPoly:
    q0 = _rhs_antiderivative(params.n, params.abs_Lambda, params.lam / params.c)
    # r (q0 - q0(r1)): an antiderivative has no r^0 term, so the constant lands on r^1 alone
    coeffs = {e + 1: c for e, c in q0.items()}
    if root_value := q0(params.r1):
        coeffs[1] = -root_value
    return LaurentPoly._of_nonzero(coeffs)


def solve_profile(params: FamilyParams) -> LaurentPoly:
    """Exact profile polynomial P: d/dr(r^-1 P) = r^-2 [ |Lambda| (r^2-1)^(n+1) + (lam/c) (r^2-1)^n ], P(r1) = 0.

    The rhs has only even exponents, so the r^-1 obstruction in
    antiderivative never triggers.  P is memoised on the frozen params
    (LaurentPoly is immutable, so the shared value is safe to return).
    """
    return _profile(params)


# -- edge and conic geometry ---------------------------------------------


def cone_angle(params: FamilyParams) -> Fraction:
    """The cone-angle factor alpha (cone angle along the edge is 2*pi*alpha).

    Read off the metric at the edge: alpha = c P'(r1) / (2 (r1^2-1)^n),
    with P'(r1) = P.taylor(r1, 1), the u^1 coefficient of P(r1 + u).
    Its closed forms (c|Lambda|/(2 r1)) (r1^2-1) + lam/(2 r1) and
    (c|Lambda|/2) r1 + (lam - c|Lambda|) / (2 r1) are checked in the tests.
    """
    if params.is_conic:
        raise ConicCase("r1 = 1 has no edge; use conic_model")
    pp = solve_profile(params).taylor(params.r1, 1)
    return params.c * pp / (2 * _w(params.r1) ** params.n)


def cone_angle_conic_limit(params: FamilyParams) -> Fraction:
    """Continuation of alpha to r1 = 1: the limit value lam/2."""
    return params.lam / 2


def edge_model(params: FamilyParams, p: LaurentPoly) -> EdgeModel:
    """Closed-form near-edge model data for r1 > 1 (see EdgeModel); cone_angle refuses r1 = 1."""
    alpha = cone_angle(params)
    w = _w(params.r1)
    beta_sq_derived = alpha * w / 2
    return EdgeModel(
        scale=4 * w**params.n / p.taylor(params.r1, 1),
        alpha=alpha,
        beta_sq_derived=beta_sq_derived,
        beta_sq_paper=alpha * beta_sq_derived,
    )


def expand_at_edge(params: FamilyParams, p: LaurentPoly) -> tuple[Fraction, Fraction, Fraction]:
    """Exact jet expansion of the metric at r = r1 + s^2; the arbiter.

    Reads P'(r1) = P.taylor(r1, 1), the u^1 coefficient of P(r1 + u)
    (the u^0 one is P(r1) = 0), keeps the leading order in w = r - r1,
    substitutes dr^2 = 4 w ds^2, and factors the model
    scale * (ds^2 + alpha_sq s^2 theta^2 + beta_sq ghat).
    Returns (scale, alpha_sq, beta_sq).
    """
    if params.is_conic:
        raise ConicCase("r1 = 1 has no edge; use conic_model")
    pp = p.taylor(params.r1, 1)
    n0 = _r2m1(params.n)(params.r1)
    # dr^2 slot: (r^2-1)^n / P ~ n0/(pp w); times 4w gives the ds^2 coefficient
    scale = 4 * n0 / pp
    # theta^2 slot: c^2 P (r^2-1)^-n ~ (c^2 pp / n0) w = (c^2 pp / n0) s^2 * (scale/scale)
    alpha_sq = (params.c**2 * pp / n0) / scale
    # ghat slot: c (r1^2 - 1), then factor out the scale
    beta_sq = params.c * (params.r1**2 - 1) / scale
    return scale, alpha_sq, beta_sq


def conic_model(params: FamilyParams, p: LaurentPoly) -> ConicModel:
    """Exact conic model at r1 = 1 from the Taylor coefficient of order n + 1 of P at r = 1.

    P(1+u) = K u^(n+1) + ... with K = (lam/c) 2^n / (n+1) (the vanishing
    order and K are checked in the tests); substituting
    u = (K/2^(n+2)) s^2 normalises the ds^2 slot to 1 and yields
    theta_coeff = (c K / 2^(n+1))^2 and base coefficient c K / 2^(n+1).
    """
    if not params.is_conic:
        raise EdgeCase("r1 > 1 has an edge; use edge_model")
    n = params.n
    k_leading = p.taylor(1, n + 1)
    ck = params.c * k_leading / 2 ** (n + 1)
    return ConicModel(
        theta_coeff=ck**2,
        base_coeff_derived=ck,
        base_coeff_paper=params.c * params.lam / (2 * n + 2),
        k_leading=k_leading,
        k_quoted=Fraction(2 ** (n + 1), n + 1),
    )


def smooth_c(n: int, lam, Lambda, r1) -> Fraction:
    """The unique c > 0 with cone angle exactly 2*pi (alpha = 1).

    Solving alpha = 1 gives c = (2 r1 - lam) / (|Lambda| (r1^2 - 1)),
    which requires 2 r1 > lam.  The result is audited by substituting
    back into cone_angle.
    """
    lam, Lambda, r1 = _coerce(lam), _coerce(Lambda), _coerce(r1)
    if r1 == 1:
        raise ConicCase("r1 = 1 is the conic case; no edge to smooth")
    if 2 * r1 <= lam:
        raise NoSmoothMetric(f"need 2*r1 > lam, got 2*{r1} <= {lam}")
    c = (2 * r1 - lam) / ((-Lambda) * (r1**2 - 1))
    check = cone_angle(FamilyParams(n=n, lam=lam, c=c, Lambda=Lambda, r1=r1))
    if check != 1:
        raise AuditMismatch(f"smooth_c round trip gave alpha = {check}")
    return c


def smooth_cone_member(n: int, t) -> FamilyParams:
    """The member g_t of the paper's smooth-cone subfamily: lam = 2, Lambda = -(2n+1), r1 = 1 + t, c = smooth_c."""
    lam, Lambda, r1 = Fraction(2), Fraction(-(2 * n + 1)), 1 + _coerce(t)
    return FamilyParams(n=n, lam=lam, c=smooth_c(n, lam, Lambda, r1), Lambda=Lambda, r1=r1)


def smooth_c_printed(n: int, lam, t) -> Fraction:
    """The printed smooth-cone value c_t = (1 + t - lam/2)/((2+t)(2n+1)).

    Kept for the formula audit; differs from smooth_c by a factor t/2.
    """
    lam, t = _coerce(lam), _coerce(t)
    return (1 + t - lam / 2) / ((2 + t) * (2 * n + 1))


def conformal_infinity(params: FamilyParams) -> Fraction:
    """The berger coefficient of the boundary representative (c|Lambda|/(2n+1)) theta^2 + ghat."""
    return params.c * params.abs_Lambda / (2 * params.n + 1)


def scaling_action(params: FamilyParams, a) -> FamilyParams:
    """(c, Lambda) -> (a c, Lambda/a); rescales the profile to P/a and g to a*g.

    The cone angle and the boundary berger coefficient depend on (c, Lambda)
    only through c|Lambda| and are invariant.  The equivariance
    solve_profile(new) == solve_profile(old)/a is asserted exactly.
    """
    a = _coerce(a)
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    new = FamilyParams(n=params.n, lam=params.lam, c=a * params.c, Lambda=params.Lambda / a, r1=params.r1)
    if solve_profile(new) != (Fraction(1) / a) * solve_profile(params):
        raise AuditMismatch("profile did not scale by 1/a under (c, Lambda) -> (a c, Lambda/a)")
    return new


def z_scale(params: FamilyParams) -> Fraction:
    """The factor c (r1^2 - 1) multiplying ghat on the zero section.

    The zero section's diameter is sqrt(this) times diam(M, ghat); only
    the factor is reported.
    """
    return params.c * _w(params.r1)


def cpn_catalogue(n: int, k: int, r1=1) -> FamilyParams:
    """Degree -k bundle over CP^n: lam = (2n+2)/k, c = 1/k, Lambda = -(2n+1)."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return FamilyParams(
        n=n,
        lam=Fraction(2 * n + 2, k),
        c=Fraction(1, k),
        Lambda=Fraction(-(2 * n + 1)),
        r1=_coerce(r1),
    )


def family_report(params: FamilyParams) -> dict:
    """Aggregate JSON-friendly record for one family member."""
    p = solve_profile(params)
    out = params.as_dict()
    out["P_text"] = p.to_text()
    out["berger_coeff"] = str(conformal_infinity(params))
    out["z_scale"] = str(z_scale(params))
    # A theorem, not a sampled check: the rhs of the profile ODE is a
    # positive combination of powers of (r^2-1) for r > 1 (FamilyParams
    # enforces |Lambda| > 0 and lam/c > 0), so r^-1 P increases from 0 at
    # r1 and P > 0 on (r1, infinity).  tests/test_family.py samples it.
    out["positivity"] = "pass"
    if params.is_conic:
        cm = conic_model(params, p)
        out["alpha"] = None
        out["beta_sq_derived"] = None
        out["beta_sq_paper"] = None
        out["conic"] = {
            "alpha_continuation": str(cone_angle_conic_limit(params)),
            "theta_coeff": str(cm.theta_coeff),
            "base_coeff_derived": str(cm.base_coeff_derived),
            "base_coeff_paper": str(cm.base_coeff_paper),
            "k_leading": str(cm.k_leading),
            "k_quoted": str(cm.k_quoted),
        }
    else:
        em = edge_model(params, p)
        out["alpha"] = str(em.alpha)
        out["beta_sq_derived"] = str(em.beta_sq_derived)
        out["beta_sq_paper"] = str(em.beta_sq_paper)
    return out
