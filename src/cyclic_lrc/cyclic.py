"""Cyclic codes: construction, encoding, membership, bounds and the
exhaustive minimum-distance oracle.

A cyclic code of length n over GF(q) is the set of coefficient vectors of
multiples of a monic generator g(x) dividing x**n - 1.  The one
constructor, ``CyclicCode(field, n, g)``, checks that and derives the
dimension n - deg g, the parity polynomial h = (x**n - 1)/g and the dual's
generator, the monic-normalized reciprocal of h; codes compare and hash as
(field, n, g), and cache what else they derive on themselves.
Codes are immutable values on element indices, with FieldElement only in
the words of :meth:`CyclicCode.encode_systematic` and
:meth:`CyclicCode.contains`; the oracle delegates its inner loop to
:mod:`cyclic_lrc.kernels`.  The BCH bound reads the zeros of g that
``construct`` states and g confirms, or that a dual takes from its code; a
code without them has no BCH bound.

Systematic encoding puts the message in the last k coordinates and reads the
n - k parity symbols off a parity matrix built once per code, in the same
GF(p)-expanded form the scan kernel uses, so an encode is one small integer
vector-matrix product and no polynomial division.  The last k coordinates
are an information set, so membership is "equals the encoding of its last k
symbols".
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from . import kernels
from .field import MAX_LENGTH, FieldElement, FiniteField, Immutable, _element, _set
from .poly import Poly

DEFAULT_BUDGET = 1 << 24


class CyclicCode(Immutable):
    """The cyclic code of length n generated by g, with its dimension
    ``k``, parity polynomial ``h`` and dual generator ``dual_g``.  Rejects
    n < 1, gcd(n, q) != 1 and a g that is not a monic divisor of x**n - 1
    over the field with ValueError.  ``zeros``, the builder's statement of
    g's zeros, maps the code to them once confirmed against g, or to None."""

    __slots__ = ("field", "n", "g", "__dict__")

    def __init__(self, field: FiniteField, n: int, g: Poly,
                 zeros: Callable[[CyclicCode], frozenset[int] | None] | None = None):
        if n < 1:
            raise ValueError(f"length must be >= 1, got {n}")
        if math.gcd(n, field.q) != 1:
            raise ValueError(f"gcd(n, q) = {math.gcd(n, field.q)} != 1 for n={n}, q={field.q}")
        if not g.is_monic:
            raise ValueError("generator polynomial must be monic and nonzero")
        # a g over another field fails the division, and a g of degree
        # above n leaves the remainder x^n - 1
        quotient, remainder = divmod(Poly.x_pow_minus_one(field, n), g)
        if not remainder.is_zero:
            raise ValueError(f"g(x) = {g} does not divide x^{n} - 1 over {field}")
        super().__init__(field, n, g)
        _set(self, "k", n - g.degree)
        _set(self, "h", quotient)
        _set(self, "dual_g", quotient.reciprocal().monic())
        _set(self, "_zeros", zeros)

    def __reduce__(self):
        return CyclicCode, (self.field, self.n, self.g, self._zeros)

    @cached_property
    def generator_matrix(self) -> tuple[tuple[int, ...], ...]:
        """k rows; row i holds the coefficients of x**i * g padded to length n."""
        g = self.g.coeffs
        return tuple((0,) * i + g + (0,) * (self.n - i - len(g)) for i in range(self.k))

    @cached_property
    def systematic_parity(self) -> tuple[tuple[int, ...], ...]:
        """The systematic parity matrix P over GF(p), as (n-k)m columns of
        km integers.

        Row i of P over GF(q) is -(x**(n-k+i) mod g), padded to n - k; each
        row is the previous one times x, reduced once by g.  Entry
        ((i, a), (j, b)) holds digit b of y**a * P[i][j], y**a being digit a,
        so a message's digit vector times this matrix, mod p, is the digit
        vector of its parity symbols.  Raises ValueError, before building
        anything, when the matrix would hold more than MAX_LENGTH**2 // 4
        entries, the most that a code over a prime field can need.
        """
        field, parity = self.field, self.n - self.k
        entries, limit = self.k * parity * field.m**2, MAX_LENGTH**2 // 4
        if entries > limit:
            raise ValueError(
                f"cannot encode: the parity matrix of this [{self.n}, {self.k}] code over {field} "
                f"has {entries} entries, over the supported {limit}"
            )
        add, mul, neg = field.add, field.mul, field.neg
        low = [neg(c) for c in self.g.coeffs[:parity]]  # x**(n-k) mod g
        rows = []
        rem = low
        for _ in range(self.k):
            rows.append([neg(c) for c in rem])
            if parity:  # x * rem, its x**(n-k) term folded back in as low
                rem = [add(a, mul(rem[-1], b)) for a, b in zip([0, *rem[:-1]], low)]
        expanded = kernels.expand(rows, field)
        return tuple(tuple(row[col] for row in expanded) for col in range(parity * field.m))

    def encode_systematic(self, message: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Codeword carrying the message verbatim in the last k coordinates.

        The codeword is x**(n-k) * m(x) minus its remainder mod g, so the
        parity symbols occupy the low-degree positions; they are computed
        through :attr:`systematic_parity`.
        """
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != k = {self.k}")
        field = self.field
        for e in message:
            if e.field is not field:
                raise ValueError(f"message symbol {e!r} not in {field}")
        digits = [d for e in message for d in e.rep]
        p, m = field.p, field.m
        parity = [sum(map(operator.mul, digits, column)) % p for column in self.systematic_parity]
        return tuple(
            _element(field, tuple(parity[j : j + m])) for j in range(0, len(parity), m)
        ) + tuple(message)

    def contains(self, word: Sequence[FieldElement]) -> bool:
        """True iff the word is a codeword: the last k coordinates are an
        information set, so it must equal the encoding of its last k symbols."""
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        return tuple(word) == self.encode_systematic(word[self.n - self.k :])

    def dual(self) -> CyclicCode:
        """The dual code, generated by the monic reciprocal of h, which has
        the zeros that g lacks, negated: the dual takes those as its own."""
        return CyclicCode(self.field, self.n, self.dual_g, self._zeros_of_dual)

    def _zeros_of_dual(self, _dual: CyclicCode) -> frozenset[int] | None:
        zeros = self.root_exponents
        return None if zeros is None else frozenset(-e % self.n for e in range(self.n) if e not in zeros)

    @cached_property
    def root_exponents(self) -> frozenset[int] | None:
        """Exponents e with g(beta**e) = 0, beta a primitive n-th root of
        unity, as stated for the code and confirmed against g on first read;
        None for a code without them, or whose g fails the confirmation."""
        return None if self._zeros is None else self._zeros(self)

    def bch_lower_bound(self) -> int | None:
        """Certified distance lower bound, 1 + the longest run of cyclically
        consecutive :attr:`root_exponents` (n + 1 for the zero code), or
        None where they are; computed once per code.

        This is the BCH bound for the root beta the exponents refer to.
        Every family ``construct`` builds states its designed run for that
        beta, and a dual's negated complement keeps the complement's runs.
        """
        return self._bch

    @cached_property
    def _bch(self) -> int | None:
        zeros, n = self.root_exponents, self.n
        if zeros is None:
            return None
        # a run starts at a zero whose predecessor is not one; only the empty
        # and the full set have no such zero, and they give 1 and n + 1
        runs = (next(j for j in range(1, n) if (e + j) % n not in zeros)
                for e in zeros if (e - 1) % n not in zeros)
        return 1 + max(runs, default=len(zeros))


class DistanceScan(NamedTuple):
    """Outcome of a minimum-weight scan, or of its budget check.

    ``exact`` is True only when the minimum over all q**k - 1 nonzero
    codewords is proven, by the scan of a cyclic-shift prefix of them
    (:func:`min_distance_exhaustive`); then lower == upper is the true
    minimum distance and ``enumerated`` counts the q**k - 1 codewords the
    result covers.  Otherwise nothing was enumerated: lower is the proven
    BCH bound (1 for a code without stated zeros) and upper the Singleton
    bound n - k + 1.  A verdict certifies a claim that is the Singleton-type
    bound, with locality verified, when lower reaches it.
    """

    lower: int
    upper: int
    exact: bool
    enumerated: int

    def to_dict(self) -> dict:
        return self._asdict()


def min_distance_exhaustive(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> DistanceScan:
    """Exact minimum distance when q**k - 1 fits the budget, else the proven
    bracket.

    Exact mode proves the minimum over every nonzero codeword from a prefix
    of the messages.  g is a codeword, so d <= w = wt(g), and a word of
    weight at most w spreads n - w or more zeros over at most w cyclic
    gaps: it has a cyclic run of L = ceil((n - w) / w) zeros.  Its cyclic
    shift that ends in that run, a codeword of the same weight, is m * g
    with deg m < k - L.  So the kernel scans the q**(k-L) - 1 messages of
    degree below k - L (one per scalar class, since scalar multiples share
    a weight), while ``enumerated`` and the budget count the q**k - 1
    codewords the result covers; rebasing the budget on the prefix would
    move verdicts.  Over the budget no codeword is enumerated: the bracket
    is the BCH lower bound (1 for a code without stated zeros) and the
    Singleton bound n - k + 1, flagged non-exact.  The zero code reports
    the conventional n + 1.
    """
    if budget < 1:
        raise ValueError(f"enumeration budget must be >= 1, got {budget}")
    if code.k == 0:
        return DistanceScan(code.n + 1, code.n + 1, True, 0)
    q, n, k = code.field.q, code.n, code.k
    total = q**k - 1
    if total > budget:
        return DistanceScan(code.bch_lower_bound() or 1, n - k + 1, False, 0)
    # a code with k > 0 has no all-zero coordinate, so the k rows x**i * g
    # cover all n: k * weight >= n, and L = ceil((n - weight) / weight) < k
    weight = sum(1 for c in code.g.coeffs if c)
    zero_run = (n - 1) // weight
    d = kernels.min_nonzero_weight(code.generator_matrix, code.field, q ** (k - zero_run) - 1)
    return DistanceScan(d, d, True, total)
