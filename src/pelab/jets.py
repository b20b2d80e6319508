"""Second-order truncated jet arithmetic (value, gradient, hessian).

A :class:`Jet2` carries values together with their exact first and
second partial derivatives with respect to d chart coordinates, and
propagates them through +, -, *, / and integer powers by the chain rule.
Seeding the coordinates of a point with :meth:`Jet2.variable` and
evaluating a metric component yields the metric derivatives the curvature
formulas need: to rounding at float points, exactly at points of Fractions.

Every jet has a trailing batch shape B: the value has shape B, the
gradient (d,) + B and the hessian (d, d) + B.  B = () is a single point;
B = (N,) evaluates N points in one pass of array operations, each an
elementwise loop over the N points of one derivative slot.  Every
operation is elementwise over B, so a point's derivatives do not depend
on which batch it was evaluated in.  The other operand of +, -, * and /
may be a jet, a number, or an array of the batch shape B (one value per
point), which broadcasts against the trailing axes and so scales the
gradient and hessian of each point by its own entry.

Hessians stay symmetric by construction (every update is a symmetrized
outer product), so no resymmetrization is ever required.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _array(values) -> np.ndarray:
    """values as an array of their element type: object for Fractions, float64 for floats and integers.

    An int entry of an object array becomes a Fraction, since 1 / 3 would be a float.
    """
    arr = np.asarray(values)
    if arr.dtype != object:
        return np.asarray(arr, dtype=np.promote_types(arr.dtype, float))
    return np.array([Fraction(e) if isinstance(e, int) else e for e in arr.flat], dtype=object).reshape(arr.shape)


def _zeros(shape, like: np.ndarray) -> np.ndarray:
    """Zeros of like's element type; an object array holds Fraction(0), which / 2 keeps exact (0 / 2 is a float)."""
    return np.full(shape, Fraction(0), dtype=like.dtype)


def _outer(a, b):
    """Batched outer product of gradients: (d,) + B x (d,) + B -> (d, d) + B."""
    return a[:, None] * b[None, :]


class Jet2:
    __slots__ = ("value", "grad", "hess")
    # numpy operands defer to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, value, grad, hess):
        # arrays (or numpy scalars) of one element type: constant and variable
        # convert their value, and every operation keeps its parts' type
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, value, dim: int) -> "Jet2":
        value = _array(value)
        return cls(value, _zeros((dim,) + value.shape, value), _zeros((dim, dim) + value.shape, value))

    @classmethod
    def variable(cls, value, index: int, dim: int) -> "Jet2":
        jet = cls.constant(value, dim)
        jet.grad[index] += 1  # a one of the value's type
        return jet

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return Jet2(other - self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self.value, other.value
            cross = _outer(self.grad, other.grad)
            return Jet2(
                a * b,
                a * other.grad + b * self.grad,
                a * other.hess + b * self.hess + cross + cross.swapaxes(0, 1),
            )
        return Jet2(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        inv = 1 / self.value
        inv2 = inv * inv
        return Jet2(
            inv,
            -inv2 * self.grad,
            -inv2 * self.hess + (2 * inv2 * inv) * _outer(self.grad, self.grad),
        )

    def __truediv__(self, other):
        return self * (other.reciprocal() if isinstance(other, Jet2) else 1 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("jet powers must have integer exponents")
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            return Jet2.constant(self.value**0, self.dim)  # ones of the value's type
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r})"


def seed_point(points, reads) -> list:
    """Coordinates of a point (shape (d,)) or of N points (shape (N, d)); those in reads as jet variables.

    Each coordinate is an array of shape B (() or (N,)) of the points'
    element type.  The jets differentiate along the coordinates in reads,
    in that order, so their gradients have shape (len(reads),) + B; every
    other coordinate is a plain array.
    """
    pts = _array(points)
    seeds = [pts[..., i] for i in range(pts.shape[-1])]
    for k, i in enumerate(reads):
        seeds[i] = Jet2.variable(pts[..., i], k, len(reads))
    return seeds


def laurent_eval(coeffs: dict, x):
    """Evaluate sum_k c_k x^k for a number or jet x (term by term), in the type of the c_k and x."""
    total = 0
    for e, c in coeffs.items():
        total = total + c * x**e
    return total
