"""Univariate polynomials over a finite field.

Coefficients are stored lowest degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and coordinate i of a codeword
is coefficient i.  Polynomials are immutable values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FieldElement, FiniteField, Immutable


class Poly(Immutable):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[FieldElement, ...]):
        super().__init__(field, coeffs)

    @classmethod
    def make(cls, field: FiniteField, coeffs: Iterable[FieldElement]) -> Poly:
        coeffs = list(coeffs)
        for c in coeffs:
            if c.field != field:
                raise ValueError(f"coefficient {c!r} not in {field}")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return cls(field, tuple(coeffs))

    @classmethod
    def from_indices(cls, field: FiniteField, indices: Sequence[int]) -> Poly:
        return cls.make(field, (field.from_index(i) for i in indices))

    @classmethod
    def zero(cls, field: FiniteField) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FiniteField) -> Poly:
        return cls(field, (field.one(),))

    @classmethod
    def x_pow_minus_one(cls, field: FiniteField, n: int) -> Poly:
        """x**n - 1."""
        coeffs = [field.zero()] * (n + 1)
        coeffs[0] = -field.one()
        coeffs[n] = field.one()
        return cls(field, tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Sequence[FieldElement]) -> Poly:
        """Monic product of (x - r) over the given roots.

        Duplicated roots are rejected: every construction served here needs
        simple roots of x**n - 1.
        """
        if not roots:
            raise ValueError("at least one root is required")
        field = roots[0].field
        if len({r.rep for r in roots}) != len(roots):
            raise ValueError("duplicated roots are not allowed")
        acc = cls.one(field)
        for r in roots:
            acc = acc * cls.make(field, (-r, field.one()))
        return acc

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].index == 1

    def coefficient(self, i: int) -> FieldElement:
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def padded(self, n: int) -> tuple[FieldElement, ...]:
        """Coefficients padded with zeros up to length n."""
        if len(self.coeffs) > n:
            raise ValueError(f"degree {self.degree} polynomial does not fit in length {n}")
        return self.coeffs + (self.field.zero(),) * (n - len(self.coeffs))

    def coefficient_indices(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _same_field(self, other: Poly) -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: Poly) -> Poly:
        self._same_field(other)
        zero = self.field.zero()
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(
            self.field,
            (self.coefficient(i) + (other.coeffs[i] if i < len(other.coeffs) else zero) for i in range(n)),
        )

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        self._same_field(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.field, out)

    def scaled(self, factor: FieldElement) -> Poly:
        return Poly.make(self.field, (c * factor for c in self.coeffs))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.field.zero()
        rem = list(self.coeffs)
        q_len = len(rem) - len(other.coeffs) + 1
        if q_len <= 0:
            return Poly.zero(self.field), self
        quot = [zero] * q_len
        inv_lead = other.coeffs[-1].inverse()
        for shift in range(q_len - 1, -1, -1):
            factor = rem[shift + other.degree] * inv_lead
            if factor.is_zero:
                continue
            quot[shift] = factor
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * b
        return Poly.make(self.field, quot), Poly.make(self.field, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def divides(self, other: Poly) -> bool:
        return (other % self).is_zero

    def divides_cycle(self, n: int) -> bool:
        """True iff this polynomial divides x**n - 1."""
        if n < 1:
            raise ValueError(f"length must be >= 1, got {n}")
        if self.is_zero:
            return False
        return self.divides(Poly.x_pow_minus_one(self.field, n))

    # -- evaluation and shape -----------------------------------------------

    def __call__(self, point: FieldElement) -> FieldElement:
        """Horner evaluation at a point of the coefficient field."""
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def reciprocal(self) -> Poly:
        """x**deg(f) * f(1/x): the reversed coefficient sequence."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no reciprocal")
        return Poly.make(self.field, reversed(self.coeffs))

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scaled(self.coeffs[-1].inverse())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c.is_zero:
                continue
            if i == 0:
                terms.append(str(c.index))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c.index == 1 else f"{c.index}*{xs}")
        return " + ".join(terms)
