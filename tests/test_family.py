"""Family construction: profile ODE, edge/conic models, audits, scaling."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import shift_reference
from pelab import family as fam
from pelab.audits import AuditRow
from pelab.cli import main
from pelab.family import (
    AuditMismatch,
    ConicCase,
    EdgeCase,
    FamilyParams,
    NoSmoothMetric,
    cone_angle,
    cone_angle_conic_limit,
    conformal_infinity,
    conic_model,
    cpn_catalogue,
    edge_model,
    expand_at_edge,
    family_report,
    scaling_action,
    smooth_c,
    smooth_c_printed,
    smooth_cone_member,
    solve_profile,
    z_scale,
)
from pelab.laurent import LaurentPoly
from pelab.limits import RescaledProfile, _loglog_slope

HYPERBOLIC = FamilyParams(n=1, lam=F(4), c=F(1), Lambda=F(-3), r1=F(1))
CONIC = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1))
EDGE = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(2))


def random_params(rng, n_max=4, r1_min=1):
    n = rng.randint(1, n_max)
    rat = lambda lo, hi: F(rng.randint(lo, hi), rng.randint(1, 4))
    r1 = F(r1_min) + (F(rng.randint(1, 8), rng.randint(1, 4)) if rng.random() < 0.8 or r1_min > 1 else 0)
    return FamilyParams(n=n, lam=rat(1, 8), c=rat(1, 6), Lambda=-rat(1, 6), r1=r1)


def family_tuples(r1):
    """FamilyParams over rational tuples with n = 1..10 and the given r1 strategy."""
    positive = st.fractions(min_value=F(1, 10), max_value=8, max_denominator=10)
    return st.builds(
        lambda n, lam, c, abs_Lambda, r1: FamilyParams(n=n, lam=lam, c=c, Lambda=-abs_Lambda, r1=r1),
        st.integers(min_value=1, max_value=10),
        positive,
        positive,
        positive,
        r1,
    )


EDGE_TUPLES = family_tuples(st.fractions(min_value=F(11, 10), max_value=5, max_denominator=10))
CONIC_TUPLES = family_tuples(st.just(F(1)))


def ode_rhs(params):
    """r^-2 [ |Lambda| (r^2-1)^(n+1) + (lam/c) (r^2-1)^n ], the right-hand side of d/dr(r^-1 P)."""
    return LaurentPoly.term(1, -2) * (params.abs_Lambda * fam._r2m1(params.n + 1) + params.lam / params.c * fam._r2m1(params.n))


def alpha_of_r1(params):
    """alpha = (c|Lambda|/2) r1 + (lam - c|Lambda|)/(2 r1) as a Laurent polynomial in r1 at fixed (c, Lambda, lam)."""
    cL = params.c * params.abs_Lambda
    return LaurentPoly({1: cL / 2, -1: (params.lam - cL) / 2})


def profile_slope(params):
    """P'(r1) from the derivative polynomial of P: the reference for the Taylor read of cone_angle, edge_model and expand_at_edge."""
    return solve_profile(params).derivative()(params.r1)


def closed_form_slope(params):
    """P'(r1) = (1/r1) [ |Lambda| (r1^2-1)^(n+1) + (lam/c) (r1^2-1)^n ], from the ODE at P(r1) = 0."""
    w = params.r1**2 - 1
    return (params.abs_Lambda * w ** (params.n + 1) + (params.lam / params.c) * w**params.n) / params.r1


def closed_form_cone_angles(params):
    """alpha without solving P: (cL/(2 r1)) (r1^2-1) + lam/(2 r1) and (cL/2) r1 + (lam - cL)/(2 r1)."""
    cL, r1 = params.c * params.abs_Lambda, params.r1
    return cL / (2 * r1) * (r1**2 - 1) + params.lam / (2 * r1), cL / 2 * r1 + (params.lam - cL) / (2 * r1)


@given(params=st.one_of(EDGE_TUPLES, CONIC_TUPLES))
def test_profile_slope_matches_its_closed_form(params):
    assert solve_profile(params).taylor(params.r1, 1) == profile_slope(params) == closed_form_slope(params)


@given(params=EDGE_TUPLES)
def test_cone_angle_matches_its_closed_forms(params):
    f1, f3 = closed_form_cone_angles(params)
    assert f1 == f3 == cone_angle(params)


# The edge constants in closed form, without P: with W1 = r1^2 - 1,
# P'(r1) = W1^n (|Lambda| W1 + lam/c)/r1 gives each of them.
@given(params=EDGE_TUPLES)
def test_edge_model_matches_its_closed_forms(params):
    p = solve_profile(params)
    em = edge_model(params, p)
    w1, abs_Lambda = params.r1**2 - 1, params.abs_Lambda
    assert em.alpha == (params.c * abs_Lambda * w1 + params.lam) / (2 * params.r1)
    assert em.scale == 4 * params.r1 / (abs_Lambda * w1 + params.lam / params.c) == expand_at_edge(params, p)[0]
    assert em.alpha * em.scale == 2 * params.c
    assert em.beta_sq_derived == em.alpha * w1 / 2


@pytest.mark.parametrize("r1", [F(1), F(3, 2), F(2), F(7, 3)])
def test_catalogue_profiles_in_closed_form(r1):
    # lam/c = 2n + 2 and |Lambda| = 2n + 1 at every k, so P = (r^2 - 1)^(n+1) - (r/r1) (r1^2 - 1)^(n+1)
    for n in range(1, 6):
        expected = fam._r2m1(n + 1) - LaurentPoly.term((r1**2 - 1) ** (n + 1) / r1, 1)
        for k in range(1, 5):
            assert solve_profile(cpn_catalogue(n, k, r1)) == expected, (n, k)


@given(params=EDGE_TUPLES)
def test_taylor_shift_at_r1_reads_the_root_and_the_derivative(params):
    p = solve_profile(params)
    shifted = shift_reference(p, params.r1)
    assert p.taylor(params.r1, 0) == shifted.coefficient(0) == 0
    assert p.taylor(params.r1, 1) == shifted.coefficient(1) == p.derivative()(params.r1)


@given(params=CONIC_TUPLES)
def test_conic_jet_vanishing_order_and_leading_constant(params):
    n = params.n
    p = solve_profile(params)
    shifted, js = shift_reference(p, 1), range(n + 2)
    assert [p.taylor(1, j) for j in js] == [shifted.coefficient(j) for j in js]
    assert [p.taylor(1, j) for j in range(n + 1)] == [0] * (n + 1)
    k_leading = p.taylor(1, n + 1)
    assert k_leading == (params.lam / params.c) * F(2**n, n + 1)
    derivative = p
    for _ in range(n + 1):
        derivative = derivative.derivative()
    assert k_leading == derivative(1) / math.factorial(n + 1)
    assert conic_model(params, p).theta_coeff == (params.lam / (2 * n + 2)) ** 2


def test_profile_fixtures():
    assert solve_profile(HYPERBOLIC) == LaurentPoly({2: 1, 0: -1}) ** 2
    assert solve_profile(CONIC) == LaurentPoly({4: 1, 1: -4, 0: 3})


def test_profile_root_condition():
    rng = random.Random(11)
    for _ in range(20):
        params = random_params(rng)
        assert solve_profile(params)(params.r1) == 0


def test_profile_ode_identity_exact():
    rng = random.Random(5)
    r_inv = LaurentPoly.term(1, -1)
    for _ in range(30):
        params = random_params(rng)
        p = solve_profile(params)
        assert (r_inv * p).derivative() == ode_rhs(params)


def test_profile_slope():
    assert profile_slope(HYPERBOLIC) == 0
    assert profile_slope(EDGE) == F(45, 2)


def test_profile_slope_positive_for_edge_params():
    rng = random.Random(23)
    for _ in range(25):
        params = random_params(rng, r1_min=1 + F(1, 7))
        assert profile_slope(params) > 0


def test_hyperbolic_profile_is_w_squared():
    # P = W^2 (W = r^2 - 1, c = 1), so dr^2 W/P = dr^2/W, theta^2 P/W = W theta^2 and ghat c W = W ghat
    assert HYPERBOLIC.c == 1
    assert solve_profile(HYPERBOLIC) == W**2


def test_metric_coefficient_identities():
    # a = W^n/P, b = c^2 P/W^n: a b = c^2 by cross multiplication; base = c (r^2 - 1)
    rng = random.Random(3)
    for _ in range(10):
        params = random_params(rng)
        p, w = solve_profile(params), fam._r2m1(params.n)
        assert w * (params.c**2 * p) == params.c**2 * (p * w)
        assert (params.c * fam._r2m1(1))(params.r1) == params.c * (params.r1**2 - 1)


def test_positivity_fixtures():
    assert solve_profile(CONIC)(2) == 11
    assert solve_profile(HYPERBOLIC)(2) == 9
    assert family_report(CONIC)["positivity"] == "pass"


# family_report states P > 0 on (r1, infinity) from the ODE sign argument
# without sampling; this samples it over n = 1..10 and r in (r1, r1 + 10],
# and checks the leading term |Lambda|/(2n+1) r^(2n+2) that governs large r
# (and that asymptotic_coefficients takes as its claimed form).
@given(params=st.one_of(EDGE_TUPLES, CONIC_TUPLES), offset=st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000))
def test_positivity_random(params, offset):
    p = solve_profile(params)
    assert p(params.r1 + offset) > 0
    top = 2 * params.n + 2
    assert max(exponent for exponent, _ in p.items()) == top
    assert p.coefficient(top) == params.abs_Lambda / (2 * params.n + 1)


def test_cone_angle_fixture():
    assert cone_angle(EDGE) == F(5, 4)


def test_cone_angle_conic_raises():
    with pytest.raises(ConicCase):
        cone_angle(HYPERBOLIC)


def test_cone_angle_near_conic_limit():
    # alpha -> lam/2 as r1 -> 1 with (c, Lambda, lam) fixed
    close = FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=1 + F(1, 10**9))
    assert abs(cone_angle(close) - F(2) / 2) < F(1, 10**6)
    assert cone_angle_conic_limit(CONIC) == 1
    assert cone_angle_conic_limit(HYPERBOLIC) == 2  # n + 1 at the k = 1 catalogue


def test_cone_angle_three_forms_agree():
    rng = random.Random(31)
    for _ in range(100):
        params = random_params(rng, r1_min=1 + F(1, 9))
        f1, f3 = closed_form_cone_angles(params)
        f2 = params.c * solve_profile(params).derivative()(params.r1) / (2 * (params.r1**2 - 1) ** params.n)
        assert f1 == f2 == f3 == cone_angle(params)
        assert f1 > 0


def test_edge_model_fixture():
    em = edge_model(EDGE, solve_profile(EDGE))
    assert em.alpha == F(5, 4)
    assert em.beta_sq_derived == F(15, 8)
    assert em.beta_sq_paper == F(75, 32)
    assert em.scale == F(8, 15)
    assert em.beta_sq_derived == em.alpha * (EDGE.r1**2 - 1) / 2


def test_expand_at_edge_fixture():
    scale, alpha_sq, beta_sq = expand_at_edge(EDGE, solve_profile(EDGE))
    assert alpha_sq == F(25, 16)
    assert beta_sq == F(15, 8)
    assert scale > 0
    # the raw theta^2 s^2 coefficient is scale * alpha_sq by definition
    pp = profile_slope(EDGE)
    assert scale * alpha_sq == EDGE.c**2 * pp / (EDGE.r1**2 - 1) ** EDGE.n


def test_expand_at_edge_arbitrates():
    # jet oracle agrees with the scale, alpha^2 and the derived beta^2, never the printed beta^2
    rng = random.Random(41)
    for _ in range(100):
        params = random_params(rng, r1_min=1 + F(1, 9))
        p = solve_profile(params)
        em = edge_model(params, p)
        scale, alpha_sq, beta_sq = expand_at_edge(params, p)
        assert scale == em.scale
        assert alpha_sq == em.alpha**2
        assert beta_sq == em.beta_sq_derived
        if em.alpha != 1:
            assert beta_sq != em.beta_sq_paper


def test_expand_at_edge_smooth_params():
    c = smooth_c(1, F(2), F(-3), F(2))
    params = FamilyParams(n=1, lam=F(2), c=c, Lambda=F(-3), r1=F(2))
    _, alpha_sq, _ = expand_at_edge(params, solve_profile(params))
    assert alpha_sq == 1


def test_conic_model_fixture():
    cm = conic_model(CONIC, solve_profile(CONIC))
    assert cm.k_leading == 6  # P = (r-1)^2 (r^2+2r+3) has jet 6 (r-1)^2
    assert cm.theta_coeff == F(1, 4)
    assert cm.base_coeff_derived == F(1, 2)
    assert cm.base_coeff_paper == F(1, 6)
    with pytest.raises(EdgeCase):
        conic_model(EDGE, solve_profile(EDGE))


@pytest.mark.parametrize("model", [edge_model, expand_at_edge])
def test_the_edge_models_refuse_the_conic_case(model):
    # P'(1) = 0 and (r1^2 - 1)^n = 0 at r1 = 1: the scale of expand_at_edge would be 0/0
    p = solve_profile(CONIC)
    assert p.derivative()(CONIC.r1) == 0
    with pytest.raises(ConicCase, match="^r1 = 1 has no edge; use conic_model$"):
        model(CONIC, p)


def test_conic_model_random():
    rng = random.Random(13)
    for _ in range(25):
        base = random_params(rng)
        params = FamilyParams(n=base.n, lam=base.lam, c=base.c, Lambda=base.Lambda, r1=F(1))
        cm = conic_model(params, solve_profile(params))
        assert cm.theta_coeff == (params.lam / (2 * params.n + 2)) ** 2
        assert cm.base_coeff_derived == params.lam / (2 * params.n + 2)
        if params.c != 1:
            assert cm.base_coeff_derived != cm.base_coeff_paper


def test_smooth_c_fixture():
    assert smooth_c(1, F(2), F(-3), F(2)) == F(2, 9)


def test_smooth_c_limit():
    # c -> 1/(2n+1) as r1 -> 1 in the lam = 2 family
    t = F(1, 10**6)
    for n in (1, 2, 3):
        c = smooth_c(n, F(2), F(-(2 * n + 1)), 1 + t)
        assert abs(c - F(1, 2 * n + 1)) < F(1, 10**5)


def test_smooth_c_errors():
    with pytest.raises(NoSmoothMetric):
        smooth_c(1, F(4), F(-3), F(3, 2))
    with pytest.raises(ConicCase):
        smooth_c(1, F(2), F(-3), F(1))


def test_smooth_c_round_trip_random():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 4)
        r1 = 1 + F(rng.randint(1, 12), rng.randint(1, 4))
        lam = 2 * r1 * F(rng.randint(1, 9), 10)  # keeps 2 r1 > lam > 0
        Lambda = -F(rng.randint(1, 7), rng.randint(1, 3))
        c = smooth_c(n, lam, Lambda, r1)
        assert cone_angle(FamilyParams(n=n, lam=lam, c=c, Lambda=Lambda, r1=r1)) == 1


@pytest.mark.parametrize("n, t", [(1, F(1)), (2, F(1, 2)), (3, F(1, 100)), (10, F(1, 10**6))])
def test_smooth_cone_member_is_the_t_family(n, t):
    member = smooth_cone_member(n, t)
    r1 = 1 + t
    assert member == FamilyParams(n=n, lam=F(2), c=smooth_c(n, 2, -(2 * n + 1), r1), Lambda=F(-(2 * n + 1)), r1=r1)
    assert cone_angle(member) == 1


def test_smooth_c_printed_differs_by_half_t():
    for n, lam, t in [(1, F(2), F(1)), (2, F(2), F(1, 2)), (1, F(3, 2), F(3))]:
        direct = smooth_c(n, lam, -(2 * n + 1), 1 + t)
        assert smooth_c_printed(n, lam, t) == direct * t / 2


def test_conformal_infinity():
    for n in (1, 2, 3):
        assert conformal_infinity(cpn_catalogue(n, 1)) == 1
        for k in (2, 3, 5):
            assert conformal_infinity(cpn_catalogue(n, k)) == F(1, k)


def test_scaling_action():
    assert scaling_action(CONIC, 1) == CONIC
    scaled = scaling_action(CONIC, 3)
    assert scaled.c == 1 and scaled.Lambda == -1
    # the profile scales by 1/a (rerunning the solver is the oracle)
    assert solve_profile(scaled) == F(1, 3) * solve_profile(CONIC)


@pytest.mark.parametrize("a", [0, -1, F(-1, 2)])
def test_scaling_action_rejects_a_factor_that_is_not_positive(a):
    with pytest.raises(ValueError, match=f"^a must be > 0, got {a}$"):
        scaling_action(CONIC, a)


def test_scaling_invariants():
    rng = random.Random(29)
    for _ in range(20):
        params = random_params(rng, r1_min=1 + F(1, 5))
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = scaling_action(params, a)
        assert cone_angle(scaled) == cone_angle(params)
        assert conformal_infinity(scaled) == conformal_infinity(params)
        assert solve_profile(scaled) == solve_profile(params) / a


# -- the memoised profile ---------------------------------------------------

W = LaurentPoly({2: 1, 0: -1})


def reference_profile(params):
    """r (q0 - q0(r1)) with q0 the antiderivative of the rhs, built by repeated products."""
    rhs = LaurentPoly.term(1, -2) * (params.abs_Lambda * W ** (params.n + 1) + (params.lam / params.c) * W**params.n)
    q0 = rhs.antiderivative()
    return LaurentPoly({1: 1}) * (q0 - q0(params.r1))


@pytest.fixture
def cold_caches():
    fam._profile.cache_clear()
    fam._rhs_antiderivative.cache_clear()


def test_r2m1_is_the_repeated_product():
    for n in range(13):
        assert fam._r2m1(n) == W**n


def sweep_rows():
    """Rows of r1, t, c and k sweeps, in the order the sweeps visit them."""
    rows = [cpn_catalogue(3, 2, r1=F(101, 100) + F(9, 10) * i) for i in range(12)]  # r1: one key, many r1
    rows += [cpn_catalogue(1, 1, r1=1 + t) for t in (F(1, 10), F(1, 100), F(1, 1000), F(0))]  # t
    rows += [FamilyParams(n=2, lam=F(3), c=F(j, 4), Lambda=F(-2), r1=F(3, 2)) for j in range(1, 6)]  # c
    rows += [cpn_catalogue(2, k, r1=F(2)) for k in range(1, 6)]  # k
    return rows


def test_cached_profile_matches_an_uncached_rebuild(cold_caches):
    rows = sweep_rows()
    for _ in range(2):  # the second pass reads from the caches
        for params in rows:
            assert solve_profile(params) == reference_profile(params)
    assert fam._rhs_antiderivative.cache_info().misses < len(rows)


def test_returned_profile_is_not_changed_by_later_calls(cold_caches):
    first = solve_profile(EDGE)
    text = repr(first)
    _ = first * first - first / 3
    # 40 params over 20 antiderivative keys: more than either cache holds
    for params in [cpn_catalogue(n, k, r1=F(2) + F(j, 7)) for n in (1, 2, 3, 4) for k in range(1, 6) for j in (0, 1)]:
        assert solve_profile(params) == reference_profile(params)
    assert repr(first) == text
    again = solve_profile(EDGE)
    assert again is not first  # evicted and solved afresh
    assert repr(again) == text


def test_r1_sweep_builds_the_antiderivative_once(monkeypatch, capsys, cold_caches):
    built = []
    antiderivative = LaurentPoly.antiderivative
    monkeypatch.setattr(LaurentPoly, "antiderivative", lambda p: built.append(p) or antiderivative(p))
    profiles = []
    solve = fam.solve_profile
    monkeypatch.setattr(fam, "solve_profile", lambda params: profiles.append(params) or solve(params))
    assert main(["sweep", "--param", "r1", "--start", "1.01", "--stop", "10", "--count", "50", "--k", "1", "--n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 51
    assert len(built) == 1
    assert len(profiles) == 2 * 50  # the calls stay; only their work is shared


def test_equivariance_and_ode_checks_compare_independent_values(cold_caches):
    params = cpn_catalogue(2, 3, r1=F(5, 2))
    scaling_action(params, F(7, 3))
    # P(new) and P(old) are two separate solves from two separate antiderivatives
    assert fam._profile.cache_info().misses == 2
    assert fam._rhs_antiderivative.cache_info().misses == 2
    # the rhs from the binomial (r^2-1)^n against the profile built from repeated products
    assert ode_rhs(params) == (reference_profile(params) * LaurentPoly.term(1, -1)).derivative()


def test_z_scale():
    assert z_scale(HYPERBOLIC) == 0
    assert z_scale(EDGE) == 1
    # along the lam = 2 smooth-cone family the factor decreases to 0
    previous = None
    for t in (F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 64)):
        r1 = 1 + t
        c = smooth_c(1, F(2), F(-3), r1)
        value = z_scale(FamilyParams(n=1, lam=F(2), c=c, Lambda=F(-3), r1=r1))
        assert value > 0
        if previous is not None:
            assert value < previous
        previous = value
    assert previous < F(1, 30)


def test_cpn_catalogue():
    entry = cpn_catalogue(1, 1)
    assert entry == HYPERBOLIC
    entry = cpn_catalogue(2, 3, r1=F(3, 2))
    assert entry.lam == F(6, 3) and entry.c == F(1, 3) and entry.Lambda == -5
    # k = n+1 is the canonical-bundle normalisation lam = 2
    for n in (1, 2, 3):
        assert cpn_catalogue(n, n + 1).lam == 2


def test_cone_angle_monotone_k1():
    # exact derivative sign plus a 100-point sweep for the k=1 catalogue
    for n in (1, 2, 3):
        alpha_poly = alpha_of_r1(cpn_catalogue(n, 1))
        slope = alpha_poly.derivative()
        assert slope(F(1)) == F(2 * n + 1, 2) - F(1, 2)
        previous = None
        for i in range(100):
            r1 = 1 + F(i + 1, 11)
            assert slope(r1) > 0
            alpha = cone_angle(cpn_catalogue(n, 1, r1=r1))
            assert alpha == alpha_poly(r1)
            if previous is not None:
                assert alpha > previous
            previous = alpha


def asymptotic_deviations(params, radii):
    """|actual / claimed leading coefficient - 1| of dr^2, theta^2 and ghat at each radius, exactly.

    Claimed: g ~ ((2n+1)/|Lambda|) dr^2/r^2 + (c^2|Lambda|/(2n+1)) r^2 theta^2 + c r^2 ghat, where
    |Lambda|/(2n+1) is the top coefficient of P; the c^2 and c cancel from the last two ratios.
    """
    p, w, top = solve_profile(params), fam._r2m1(params.n), params.abs_Lambda / (2 * params.n + 1)
    return [(abs(w(r) / p(r) * top * r**2 - 1), abs(p(r) / (w(r) * top * r**2) - 1), abs((r**2 - 1) / r**2 - 1)) for r in map(F, radii)]


def decade_factors(deviations):
    return [[dev / later for dev, later in zip(row, next_row)] for row, next_row in zip(deviations, deviations[1:])]


def test_asymptotic_coefficients():
    assert solve_profile(EDGE).coefficient(4) == EDGE.abs_Lambda / 3
    # deviations shrink by at least 5x per decade (measured: ~9x to ~100x)
    for row in decade_factors(asymptotic_deviations(EDGE, (10, 100, 1000))):
        assert all(factor > 5 for factor in row)
    # hyperbolic dr^2 ratio: A(r) r^2 |Lambda|/(2n+1) = r^2/(r^2-1)
    assert asymptotic_deviations(HYPERBOLIC, (10,))[0][0] == abs(F(100, 99) - 1)


def test_asymptotic_coefficients_reports_a_slow_approach():
    # lam/(c|Lambda|) = 20000/3 puts the pre-asymptotic range far beyond the
    # radii 10, 100, 1000: the deviations shrink slowly there
    params = FamilyParams(n=1, lam=F(2), c=F(1, 10000), Lambda=F(-3), r1=F(2))
    assert 1 < decade_factors(asymptotic_deviations(params, (10, 100, 1000)))[0][0] < 5
    # from 10 ceil(sqrt(lam/(c|Lambda|))) on, every decade factor exceeds 5 (measured: 97 to 100)
    r0 = 10 * math.ceil(math.sqrt(params.lam / (params.c * params.abs_Lambda)))
    assert r0 == 820
    for row in decade_factors(asymptotic_deviations(params, (r0, 10 * r0, 100 * r0))):
        assert all(factor > 5 for factor in row)


def test_zero_section_collapse_exponents():
    # c = 1 family: ghat factor c (r1^2 - 1) = 2t + t^2 ~ 2t (exponent 1), diameter factor ~ sqrt(2t)
    ts = [F(1, 10), F(1, 100), F(1, 1000), F(1, 10000)]
    factors = [z_scale(cpn_catalogue(1, 1, r1=1 + t)) for t in ts]
    assert factors == [2 * t + t**2 for t in ts]
    z_slope = _loglog_slope(ts, factors)
    assert abs(z_slope - 1) < 0.05
    assert abs(z_slope / 2 - 0.5) < 0.03


def test_family_report_keys():
    report = family_report(EDGE)
    for key in ("n", "lambda", "c", "Lambda", "r1", "alpha", "beta_sq_derived", "beta_sq_paper", "berger_coeff", "z_scale", "P_text"):
        assert key in report
    assert report["P_text"] == "r^4 - 19/2*r + 3"
    assert report["alpha"] == "5/4"


@pytest.mark.parametrize(
    "printed, derived, verdict",
    [
        (F(2), F(1), "derived confirmed; printed form fails"),
        (F(1), F(1), "both forms agree here"),
        (F(1), F(2), "UNRESOLVED"),
        (F(3), F(2), "UNRESOLVED"),
    ],
)
def test_an_audit_row_states_its_verdict(printed, derived, verdict):
    row = AuditRow("q", "tuple", printed, derived, F(1), "oracle")  # the oracle is 1
    assert row.verdict == row.as_dict()["verdict"] == verdict


def test_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(n=0, lam=F(2), c=F(1), Lambda=F(-1), r1=F(1))
    with pytest.raises(ValueError):
        FamilyParams(n=1, lam=F(-2), c=F(1), Lambda=F(-1), r1=F(1))
    with pytest.raises(ValueError):
        FamilyParams(n=1, lam=F(2), c=F(1), Lambda=F(1), r1=F(1))
    with pytest.raises(ValueError):
        FamilyParams(n=1, lam=F(2), c=F(1), Lambda=F(-1), r1=F(1, 2))


@pytest.mark.parametrize(
    "build",
    [lambda n, lam: FamilyParams(n=n, lam=lam, c=1, Lambda=-3, r1=2), lambda n, lam: RescaledProfile(n, lam, 1)],
    ids=["FamilyParams", "RescaledProfile"],
)
def test_both_records_check_their_base_alike(build):
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        build(0, 0)  # n is checked before lam
    with pytest.raises(ValueError, match="^lam must be > 0, got 0$"):
        build(1, 0)
    with pytest.raises(ValueError, match="^lam must be > 0, got -1/2$"):
        build(1, "-1/2")  # coerced before it is checked
    build(1, F(1, 10**9))
