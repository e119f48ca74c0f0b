"""Univariate polynomials over a finite field.

Coefficients are canonical element indices (see :mod:`cyclic_lrc.field`),
stored lowest degree first.  The one constructor, ``Poly(field, coeffs)``,
takes any iterable and drops trailing zeros, so the zero polynomial has an
empty coefficient tuple, equal polynomials have equal tuples, and
coordinate i of a codeword is coefficient i.  The ring operations are
the product and ``divmod``, long division; both run on the field's index
operations.  Long division is the package's one polynomial division: the
field's inverse and its irreducibility test are powers, not gcds.
Polynomials are immutable values; ring operations on polynomials over
different fields raise ValueError.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FiniteField, Immutable


class Poly(Immutable):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable[int]):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        super().__init__(field, tuple(coeffs))

    @classmethod
    def x_pow_minus_one(cls, field: FiniteField, n: int) -> Poly:
        """x**n - 1."""
        coeffs = [0] * (n + 1)
        coeffs[0] = field.neg(1)
        coeffs[n] = 1
        return cls(field, coeffs)

    @classmethod
    def from_roots(cls, field: FiniteField, roots: Sequence[int]) -> Poly:
        """Monic product of (x - r) over the given roots, 1 for none.

        Duplicated roots are rejected: every construction served here needs
        simple roots of x**n - 1.  Each root is one pass over one list.
        """
        if len(set(roots)) != len(roots):
            raise ValueError("duplicated roots are not allowed")
        add, mul = field.add, field.mul
        coeffs = [1]
        for r in roots:
            minus_r = field.neg(r)
            coeffs = [add(a, mul(minus_r, b)) for a, b in zip([0, *coeffs], [*coeffs, 0])]
        return cls(field, coeffs)

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
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    # -- ring operations ----------------------------------------------------

    def _same_field(self, other: Poly) -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __mul__(self, other: Poly) -> Poly:
        self._same_field(other)
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = add(out[i + j], mul(a, b))
        return Poly(self.field, out)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder by long division, one inversion of the
        divisor's leading coefficient.  Each step subtracts only the
        divisor's nonzero terms, so dividing by a sparse divisor such as
        x**s - c costs a few products per quotient coefficient."""
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field, b = self.field, other.coeffs
        sub, mul = field.sub, field.mul
        rem, top = list(self.coeffs), len(b) - 1
        quot = [0] * max(0, len(rem) - top)
        inv_lead = field.inv(b[-1])
        terms = [(i, c) for i, c in enumerate(b) if c]
        for shift in range(len(quot) - 1, -1, -1):
            factor = mul(rem[shift + top], inv_lead)
            if factor:
                quot[shift] = factor
                for i, c in terms:
                    rem[shift + i] = sub(rem[shift + i], mul(factor, c))
        return Poly(field, quot), Poly(field, rem[:top])

    # -- shape --------------------------------------------------------------

    def reciprocal(self) -> Poly:
        """x**deg(f) * f(1/x): the reversed coefficient sequence."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no reciprocal")
        return Poly(self.field, reversed(self.coeffs))

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        mul, factor = self.field.mul, self.field.inv(self.coeffs[-1])
        return Poly(self.field, (mul(c, factor) for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}*{xs}")
        return " + ".join(terms)
