"""Exact arithmetic on Laurent polynomials: examples and ring properties."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import shift_reference
from pelab.laurent import LaurentPoly, NonIntegrableTerm, ZeroBase

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


def test_derivative_at_examples():
    # taylor(x, 1) is the slope P'(x)
    p = LaurentPoly({3: 1, 0: 5, -2: 1})
    assert p.taylor(2, 1) == 3 * 4 - F(2, 8) == p.derivative()(2)
    assert LaurentPoly({4: 1, 1: -4, 0: 3}).taylor(1, 1) == 0
    # at 0 the slope is the r^1 coefficient, not the constant term
    assert LaurentPoly({2: 1, 1: F(-3, 2), 0: 5}).taylor(0, 1) == F(-3, 2)
    assert LaurentPoly.constant(7).taylor(F(3, 5), 1) == 0
    assert LaurentPoly().taylor(0, 1) == 0
    with pytest.raises(ZeroBase):
        LaurentPoly({1: 1, -1: 1}).taylor(0, 1)


def test_shift_examples():
    # the coefficients of P(a + u) in u, read one order at a time through taylor(a, j)
    # the conic fixture P = r^4 - 4r + 3 vanishes to second order at r = 1: P(1 + u) = 6u^2 + 4u^3 + u^4
    assert [LaurentPoly({4: 1, 1: -4, 0: 3}).taylor(1, j) for j in range(6)] == [0, 0, 6, 4, 1, 0]
    assert [R2M1.taylor(2, j) for j in range(4)] == [3, 4, 1, 0]
    # r^-2 at 1: C(-2, j) = (-1)^j (j + 1)
    assert [LaurentPoly({-2: 1}).taylor(1, j) for j in range(4)] == [1, -2, 3, -4]
    # at 0 the expansion is P itself: the r^j coefficient, not the constant term
    assert [LaurentPoly({2: 1, 1: F(-3, 2), 0: 5}).taylor(0, j) for j in range(4)] == [5, F(-3, 2), 1, 0]
    assert LaurentPoly().taylor(0, 0) == LaurentPoly().taylor(5, 3) == 0


def test_text_form():
    assert LaurentPoly({4: 1, 1: -4, 0: 3}).to_text() == "r^4 - 4*r + 3"
    assert LaurentPoly().to_text() == "0"
    assert LaurentPoly({2: F(3, 2), -1: F(-2, 5)}).to_text() == "3/2*r^2 - 2/5*r^-1"
    assert LaurentPoly({1: -1, 0: 1}).to_text() == "-r + 1"


def test_a_laurent_poly_refuses_assignment():
    p = LaurentPoly({1: 1})
    with pytest.raises(AttributeError, match="^LaurentPoly is immutable$"):
        p._coeffs = {}
    assert p == R


def test_a_float_coefficient_is_refused():
    with pytest.raises(TypeError, match="^exact rational expected, got float$"):
        LaurentPoly({0: 0.5})


def test_a_constant_equals_its_number():
    assert LaurentPoly.constant(3) == 3
    assert LaurentPoly.constant(F(1, 2)) == F(1, 2) != 1


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


genuine = st.dictionaries(st.integers(min_value=0, max_value=10), coeffs, max_size=6).map(LaurentPoly)
centres = st.fractions(min_value=-10, max_value=10, max_denominator=12)
constants = coeffs.map(LaurentPoly.constant)
orders = st.integers(min_value=0, max_value=5)


def _degree(p):
    return max((e for e, _ in p.items()), default=0)


@given(p=st.one_of(st.just(LaurentPoly()), constants, polys, negative_only, huge_entries), x=signed_points | huge_fractions, j=orders)
def test_taylor_matches_the_repeated_derivative(p, x, j):
    # P^(j)(x)/j! with the j-fold derivative polynomial as the reference, negative exponents included
    reference = p
    for _ in range(j):
        reference = reference.derivative()
    value = p.taylor(x, j)
    assert type(value) is F and value == reference(x) / math.factorial(j)


@given(p=st.one_of(st.just(LaurentPoly()), constants, genuine, polys, negative_only), j=orders)
def test_taylor_at_zero_is_the_coefficient(p, j):
    if p and min(e for e, _ in p.items()) < 0:
        with pytest.raises(ZeroBase):
            p.taylor(0, j)
    else:
        assert p.taylor(0, j) == p.coefficient(j)


@given(p=genuine, a=centres)
def test_taylor_matches_the_binomial_composition(p, a):
    reference, js = shift_reference(p, a), range(_degree(p) + 2)
    assert [p.taylor(a, j) for j in js] == [reference.coefficient(j) for j in js]


@given(p=genuine, a=centres, u=centres)
def test_taylor_coefficients_sum_to_p_at_a_plus_u(p, a, u):
    assert sum(p.taylor(a, j) * u**j for j in range(_degree(p) + 1)) == p(a + u)


@given(p=genuine, a=centres)
def test_taylor_round_trip(p, a):
    # expanding at a, then expanding that polynomial at -a, gives back P
    shifted = LaurentPoly({j: p.taylor(a, j) for j in range(_degree(p) + 1)})
    assert LaurentPoly({j: shifted.taylor(-a, j) for j in range(_degree(p) + 1)}) == p
