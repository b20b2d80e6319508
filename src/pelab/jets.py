"""Second-order truncated jet arithmetic (value, gradient, hessian).

A :class:`Jet2` carries float values together with their exact first and
second partial derivatives with respect to d chart coordinates, and
propagates them through +, -, *, / and integer powers by the chain rule.
Seeding the coordinates of a point with :meth:`Jet2.variable` and
evaluating a metric component therefore yields machine-precision metric
derivatives, which is exactly what the curvature formulas need.

Every jet has a leading batch shape B: the value has shape B, the
gradient B + (d,) and the hessian B + (d, d).  B = () is a single point;
B = (N,) evaluates N points in one pass of array operations.  Every
operation is elementwise over B, so a point's derivatives do not depend
on which batch it was evaluated in.  The other operand of +, -, * and /
may be a jet, a number, or a float array of the batch shape B (one value
per point), which scales the gradient and hessian of each point by its own
entry.

Hessians stay symmetric by construction (every update is a symmetrized
outer product), so no resymmetrization is ever required.
"""

from __future__ import annotations

import numpy as np

_OPERAND = (int, float, np.ndarray)


def _outer(a, b):
    """Batched outer product of gradients: B + (d,) x B + (d,) -> B + (d, d)."""
    return a[..., :, None] * b[..., None, :]


class Jet2:
    __slots__ = ("value", "grad", "hess")
    # numpy operands defer to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, value, grad, hess):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def constant(cls, value, dim: int) -> "Jet2":
        shape = np.shape(value)
        return cls(value, np.zeros(shape + (dim,)), np.zeros(shape + (dim, dim)))

    @classmethod
    def variable(cls, value, index: int, dim: int) -> "Jet2":
        shape = np.shape(value)
        g = np.zeros(shape + (dim,))
        g[..., index] = 1.0
        return cls(value, g, np.zeros(shape + (dim, dim)))

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, _OPERAND):
            return Jet2(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, _OPERAND):
            return Jet2(self.value - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _OPERAND):
            return Jet2(other - self.value, -self.grad, -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self.value[..., None], other.value[..., None]
            cross = _outer(self.grad, other.grad)
            return Jet2(
                self.value * other.value,
                a * other.grad + b * self.grad,
                a[..., None] * other.hess + b[..., None] * self.hess + cross + cross.swapaxes(-1, -2),
            )
        if isinstance(other, np.ndarray):
            return Jet2(self.value * other, self.grad * other[..., None], self.hess * other[..., None, None])
        if isinstance(other, _OPERAND):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.value
        inv2 = inv * inv
        return Jet2(
            inv,
            -inv2[..., None] * self.grad,
            -inv2[..., None, None] * self.hess + (2.0 * inv2 * inv)[..., None, None] * _outer(self.grad, self.grad),
        )

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        if isinstance(other, _OPERAND):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("jet powers must have integer exponents")
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            return Jet2.constant(np.ones_like(self.value), self.dim)
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


def seed_point(points) -> list[Jet2]:
    """Coordinates of a point (shape (d,)) or of N points (shape (N, d)) as jet variables."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[-1]
    return [Jet2.variable(pts[..., i], i, d) for i in range(d)]


def laurent_eval(coeffs: dict[int, float], x):
    """Evaluate sum_k c_k x^k for float or jet x (term by term)."""
    total = 0.0
    for e, c in coeffs.items():
        total = total + c * x**e
    return total
