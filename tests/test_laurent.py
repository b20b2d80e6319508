"""Exact arithmetic on Laurent polynomials: examples and ring properties."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pelab.laurent import LaurentPoly, LaurentQuotient, NonIntegrableTerm, ZeroBase

R = LaurentPoly({1: 1})
R2M1 = LaurentPoly({2: 1, 0: -1})


def test_add_cancellation():
    assert LaurentPoly({2: 1, 0: 1}) + LaurentPoly({0: -1}) == LaurentPoly({2: 1})


def test_add_identity():
    p = LaurentPoly({3: F(2, 5), -1: 7})
    assert p + LaurentPoly() == p


def test_add_like_terms():
    assert LaurentPoly({-1: 1}) + LaurentPoly({-1: 1}) == LaurentPoly({-1: 2})


def test_mul_difference_of_squares():
    assert LaurentPoly({1: 1, 0: -1}) * LaurentPoly({1: 1, 0: 1}) == R2M1


def test_mul_binomial_square():
    assert R2M1 * R2M1 == LaurentPoly({4: 1, 2: -2, 0: 1})


def test_mul_exponent_addition():
    assert LaurentPoly({-2: 1}) * LaurentPoly({3: 1}) == R


def test_pow():
    assert R2M1**0 == LaurentPoly.constant(1)
    assert R2M1**2 == LaurentPoly({4: 1, 2: -2, 0: 1})
    assert R2M1**3 == LaurentPoly({6: 1, 4: -3, 2: 3, 0: -1})
    with pytest.raises(ValueError):
        R2M1 ** (-1)


def test_antiderivative():
    assert LaurentPoly({2: 1}).antiderivative() == LaurentPoly({3: F(1, 3)})
    assert LaurentPoly({-2: 1}).antiderivative() == LaurentPoly({-1: -1})
    with pytest.raises(NonIntegrableTerm):
        LaurentPoly({-1: 1}).antiderivative()


def test_eval_exact():
    # P of the conic fixture vanishes at its root radius
    from pelab.family import FamilyParams, solve_profile

    p = solve_profile(FamilyParams(n=1, lam=F(2), c=F(1, 3), Lambda=F(-3), r1=F(1)))
    assert p == LaurentPoly({4: 1, 1: -4, 0: 3})
    assert p(1) == 0
    assert R2M1(2) == 3
    with pytest.raises(ZeroBase):
        LaurentPoly({-1: 1})(0)


def test_eval_returns_a_reduced_fraction():
    # (-1/2)^-3 = -8 and 2 (-1/2)^-1 = -4: a negative power of a negative base
    value = LaurentPoly({-3: 1, -1: 2})(F(-1, 2))
    assert type(value) is F and value == -12 and value.denominator == 1
    assert LaurentPoly({2: F(1, 2)})(3) == F(9, 2)
    assert LaurentPoly({0: 5, 2: 1})(0) == 5


def test_derivative():
    assert LaurentPoly({3: 1, 0: 5, -2: 1}).derivative() == LaurentPoly({2: 3, -3: -2})


def test_text_form():
    assert LaurentPoly({4: 1, 1: -4, 0: 3}).to_text() == "r^4 - 4*r + 3"
    assert LaurentPoly().to_text() == "0"
    assert LaurentPoly({2: F(3, 2), -1: F(-2, 5)}).to_text() == "3/2*r^2 - 2/5*r^-1"
    assert LaurentPoly({1: -1, 0: 1}).to_text() == "-r + 1"


def test_quotient_equality_and_eval():
    a = LaurentQuotient(R2M1, R2M1**2)
    b = LaurentQuotient(LaurentPoly.constant(1), R2M1)
    assert a == b
    assert a(2) == F(1, 3)
    assert (a * R2M1) == 1


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=30)
polys = st.dictionaries(st.integers(min_value=-6, max_value=8), coeffs, max_size=6).map(LaurentPoly)
no_log = polys.map(lambda p: p - LaurentPoly({-1: p.coefficient(-1)}))
points = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)


@given(p=no_log)
def test_derivative_inverts_antiderivative(p):
    assert p.antiderivative().derivative() == p


@given(p=polys, q=polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(p=polys, q=polys, s=polys)
def test_mul_associative(p, q, s):
    assert (p * q) * s == p * (q * s)


@given(p=polys, q=polys, s=polys)
def test_distributive(p, q, s):
    assert p * (q + s) == p * q + p * s


@given(p=polys, q=polys, x=points)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def _termwise(p, x):
    """sum c x^e, one Fraction term at a time: the reference for exact evaluation."""
    return sum((c * x**e for e, c in p.items()), F(0))


signed_points = st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool)
huge = st.integers(min_value=2**64, max_value=2**80)
huge_fractions = st.builds(F, huge | huge.map(lambda v: -v), huge)
negative_only = st.dictionaries(st.integers(min_value=-8, max_value=-1), coeffs, max_size=6).map(LaurentPoly)
huge_entries = st.dictionaries(st.integers(min_value=-6, max_value=8), huge_fractions, min_size=1, max_size=5).map(LaurentPoly)


@given(p=st.one_of(st.just(LaurentPoly()), polys, negative_only, huge_entries), x=signed_points | huge_fractions)
def test_eval_matches_termwise_sum(p, x):
    # x of both signs; only negative exponents; the zero polynomial; entries above 2^64
    value = p(x)
    assert type(value) is F and value == _termwise(p, x)
    assert p.derivative()(x) == _termwise(p.derivative(), x)


def _shift_reference(p, a):
    """sum c (u + a)^e by repeated products of (u + a)."""
    u_plus_a = LaurentPoly({1: 1, 0: a})
    out = LaurentPoly()
    for e, c in p.items():
        out = out + c * u_plus_a**e
    return out


genuine = st.dictionaries(st.integers(min_value=0, max_value=10), coeffs, max_size=6).map(LaurentPoly)
centres = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_shift_examples():
    # the conic fixture P = r^4 - 4r + 3 vanishes to second order at r = 1
    assert LaurentPoly({4: 1, 1: -4, 0: 3}).shift(1) == LaurentPoly({4: 1, 3: 4, 2: 6})
    assert R2M1.shift(2) == LaurentPoly({2: 1, 1: 4, 0: 3})
    assert LaurentPoly().shift(5) == LaurentPoly()
    with pytest.raises(ValueError):
        LaurentPoly({2: 1, -1: 1}).shift(1)


@given(p=genuine, a=centres)
def test_shift_matches_binomial_composition(p, a):
    assert p.shift(a) == _shift_reference(p, a)


@given(p=genuine, a=centres, u=centres)
def test_shift_evaluates_at_a_plus_u(p, a, u):
    assert p.shift(a)(u) == p(a + u)


@given(p=genuine, a=centres)
def test_shift_round_trip(p, a):
    assert p.shift(a).shift(-a) == p
