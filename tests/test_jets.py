"""Jet arithmetic against hand-computed derivatives and finite differences."""

import numpy as np
import pytest

from pelab.jets import Jet2, laurent_eval, seed_point


def _xy(x, y):
    return Jet2.variable(x, 0, 2), Jet2.variable(y, 1, 2)


def test_polynomial_jet():
    # f = x^2 y + 3x: grad (2xy + 3, x^2), hess [[2y, 2x], [2x, 0]]
    x, y = _xy(1.5, -0.7)
    f = x * x * y + 3 * x
    assert f.value == pytest.approx(1.5**2 * -0.7 + 4.5, abs=1e-15)
    assert np.allclose(f.grad, [2 * 1.5 * -0.7 + 3, 1.5**2], atol=1e-12)
    assert np.allclose(f.hess, [[2 * -0.7, 3.0], [3.0, 0.0]], atol=1e-12)


def test_reciprocal_jet():
    # f = 1/(1 + x^2 + y^2)
    a, b = 0.4, -0.3
    x, y = _xy(a, b)
    f = 1 / (1 + x * x + y * y)
    s = 1 + a * a + b * b
    assert f.value == pytest.approx(1 / s, abs=1e-15)
    assert np.allclose(f.grad, [-2 * a / s**2, -2 * b / s**2], atol=1e-12)
    hxx = -2 / s**2 + 8 * a * a / s**3
    hxy = 8 * a * b / s**3
    hyy = -2 / s**2 + 8 * b * b / s**3
    assert np.allclose(f.hess, [[hxx, hxy], [hxy, hyy]], atol=1e-12)


def test_quotient_and_negative_powers():
    a = 1.3
    x = Jet2.variable(a, 0, 1)
    f = x**-2
    assert f.value == pytest.approx(a**-2, abs=1e-15)
    assert f.grad[0] == pytest.approx(-2 * a**-3, abs=1e-12)
    assert f.hess[0, 0] == pytest.approx(6 * a**-4, abs=1e-12)
    g = (x * x - 1) / (x * x + 1)
    gv = (a * a - 1) / (a * a + 1)
    assert g.value == pytest.approx(gv, abs=1e-15)
    assert g.grad[0] == pytest.approx(4 * a / (a * a + 1) ** 2, abs=1e-12)


def test_division_errors():
    # 1/x of a zero jet is a float fault that geom.point_scalars classifies (test_cli's USAGE_ERRORS)
    with pytest.raises(TypeError):
        Jet2.variable(1.0, 0, 1) ** 0.5


def test_matches_finite_differences_at_second_order():
    # central differences of f = x^2 y + 1/(1+x^2+y^2) converge O(h^2) to the jet
    def f(x, y):
        return x * x * y + 1 / (1 + x * x + y * y)

    a, b = 0.37, -0.85
    x, y = _xy(a, b)
    jet = f(x, y)
    errors = []
    for h in (1e-2, 5e-3):
        dx = (f(a + h, b) - f(a - h, b)) / (2 * h)
        dxx = (f(a + h, b) - 2 * f(a, b) + f(a - h, b)) / h**2
        errors.append((abs(dx - jet.grad[0]), abs(dxx - jet.hess[0, 0])))
    for first, second in zip(errors[0], errors[1]):
        assert second < first / 3  # halving h shrinks the O(h^2) error ~4x


def test_seed_point_and_laurent_eval():
    pts = seed_point((2.0, 3.0))
    assert pts[0].grad[0] == 1.0 and pts[0].grad[1] == 0.0
    coeffs = {2: 1.0, -1: 3.0}
    val = laurent_eval(coeffs, pts[0])
    assert val.value == pytest.approx(4 + 1.5, abs=1e-14)
    assert val.grad[0] == pytest.approx(2 * 2 - 3 / 4, abs=1e-12)
    assert val.hess[0, 0] == pytest.approx(2 + 6 / 8, abs=1e-12)
    assert laurent_eval(coeffs, 2.0) == pytest.approx(5.5, abs=1e-14)


def test_hessian_symmetry_preserved():
    x, y = _xy(0.9, 1.7)
    f = (x * y + 1) ** 3 / (x + y)
    assert np.allclose(f.hess, f.hess.T, atol=0)


def test_array_operands_act_point_by_point():
    # a float array of the batch shape is one operand per point: each point's
    # value, gradient and hessian are those of its own scalar operand, bit for bit
    pts = np.array([[1.3, -0.4], [0.7, 2.1], [-1.1, 0.5]])
    a = np.array([0.3, -2.5, 7.0])

    def ops(x, y, s):
        return [x * s, s * x, x + s, s + x, x - s, s - x, x / s, s / x, (x * y + 1) * s / y]

    batch = ops(*seed_point(pts), a)
    for i, pt in enumerate(pts):
        for got, want in zip(batch, ops(*seed_point(pt), float(a[i]))):
            for field in ("value", "grad", "hess"):
                assert getattr(got, field)[i].tobytes() == getattr(want, field).tobytes(), (i, field)
