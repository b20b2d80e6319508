"""Exact Laurent-polynomial arithmetic over the rationals.

A :class:`LaurentPoly` is a finite sum ``sum_k c_k * r^k`` where the
exponents k are integers of either sign and the coefficients c_k are
exact rationals, stored as a map {exponent: Fraction}.  Zero
coefficients are never stored, so the representation is canonical and
structural equality coincides with mathematical equality.

All arithmetic (+, -, *, integer powers, derivative, antiderivative,
Taylor shift, evaluation at rational points) is exact; nothing here rounds.
Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

Scalar = Union[int, Fraction]


class NonIntegrableTerm(ArithmeticError):
    """Antiderivative of an r^-1 term was requested (it is not a Laurent polynomial)."""


class ZeroBase(ZeroDivisionError):
    """Evaluation at 0 of a Laurent polynomial with negative exponents."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


class LaurentPoly:
    """Immutable Laurent polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exponent, value in coeffs.items():
                c = _coerce(value)
                if c:
                    clean[int(exponent)] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _of_nonzero(cls, coeffs: dict[int, Fraction]) -> "LaurentPoly":
        """Adopt a map whose values are already non-zero Fractions, skipping _coerce."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_coeffs", coeffs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: _coerce(value)})

    @classmethod
    def term(cls, coeff, exponent: int) -> "LaurentPoly":
        return cls({exponent: _coerce(coeff)})

    # -- inspection ---------------------------------------------------

    def coefficient(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in decreasing exponent order."""
        return iter(sorted(self._coeffs.items(), reverse=True))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly.constant(-_coerce(other)))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            k = _coerce(other)
            return LaurentPoly({e: c * k for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _coerce(other))
        return NotImplemented

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly._of_nonzero({e - 1: c * e for e, c in self._coeffs.items() if e != 0})

    def antiderivative(self) -> "LaurentPoly":
        """Term-by-term antiderivative with zero constant term.

        The r^-1 term has no Laurent antiderivative; requesting one is a
        caller bug and raises :class:`NonIntegrableTerm`.
        """
        if -1 in self._coeffs:
            raise NonIntegrableTerm("r^-1 term integrates to a logarithm")
        return LaurentPoly({e + 1: c / (e + 1) for e, c in self._coeffs.items()})

    def shift(self, a) -> "LaurentPoly":
        """P(a + u) as a polynomial in u, by the binomial theorem.

        The exact Taylor expansion at r = a: the u^j coefficient is
        P^(j)(a)/j!.  Negative exponents have no finite expansion here and
        raise ValueError.
        """
        if self._coeffs and min(self._coeffs) < 0:
            raise ValueError("Taylor shift needs a genuine polynomial")
        a = _coerce(a)
        out: dict[int, Fraction] = {}
        for e, c in self._coeffs.items():
            for j in range(e + 1):
                out[j] = out.get(j, Fraction(0)) + c * math.comb(e, j) * a ** (e - j)
        return LaurentPoly(out)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point (x != 0 if negative exponents).

        One pass in integers: with x = p/q and A_e = D c_e (D the lcm of the
        denominators), Horner's rule sums S = sum A_e p^(e-lo) q^(hi-e), and
        P(x) = S p^lo / (D q^hi) is reduced by a single gcd.
        """
        x = _coerce(x)
        coeffs = self._coeffs
        if not coeffs:
            return Fraction(0)
        lo, hi = min(coeffs), max(coeffs)
        p, q = x.numerator, x.denominator
        if p == 0:
            if lo < 0:
                raise ZeroBase("negative exponents cannot be evaluated at 0")
            return self.coefficient(0)
        d = math.lcm(*(c.denominator for c in coeffs.values()))
        total, q_power = 0, 1
        for e in range(hi, lo - 1, -1):
            c = coeffs.get(e)
            total *= p
            if c is not None:
                total += c.numerator * (d // c.denominator) * q_power
            q_power *= q
        num, den = (total, d * p**-lo) if lo < 0 else (total * p**lo, d)
        return Fraction(num * q**-hi, den) if hi < 0 else Fraction(num, den * q**hi)

    # -- text form ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, decreasing exponents, rationals as p/q.

        Examples: ``r^4 - 4*r + 3``, ``1/2 - 1/2*r^-4``.
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                v = "r" if e == 1 else f"r^{e}"
                body = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({{{', '.join(f'{e}: {c!r}' for e, c in self.items())}}})"


class LaurentQuotient:
    """A ratio of two Laurent polynomials, kept unreduced.

    Equality is tested by cross multiplication, which is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num(x) / d

    def __mul__(self, other) -> "LaurentQuotient":
        if isinstance(other, LaurentQuotient):
            return LaurentQuotient(self.num * other.num, self.den * other.den)
        return LaurentQuotient(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentQuotient):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.num == self.den * other
        return NotImplemented

    def __repr__(self) -> str:
        return f"LaurentQuotient({self.num!r}, {self.den!r})"
