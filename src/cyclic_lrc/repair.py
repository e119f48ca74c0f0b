"""Repair vectors, repair plans, single-erasure repair and locality checks.

For the codes built here every coordinate i is repaired inside its residue
class modulo s = n/(r+1), from a dual codeword of weight r+1 on that class.
Such a word has a closed form.  When g has a factor x^s - c, every codeword
reduces to zero modulo x^s - c, so for each class the word with entry c^t at
i mod s + s*t (t = 0..r) is a dual codeword, and c^(r+1) = 1.  The grid
constant c, the first by index for which x^s - c divides g, is found by
folding g's coefficients modulo x^s - c, once per code, and cached on it
(``LrcCode.grid_constant``); a locality check at another r finds it afresh.
The repair vector of i is that word on i's class.  That factor is the only
locality certificate: a code without it has no repair plan, and its
locality is reported unsettled, not refuted.

Repair reads a plan built once per code from c: for i = i mod s + s*u, the
r pairs (i mod s + s*t, -c^(t-u)) over t != u, so that c_i is the sum of the
products with the read symbols.  The plan is cached on the code object
(``LrcCode.repair_plan``).  Everything here computes on element indices;
FieldElement appears only in :class:`ErasedWord`, the symbol
:func:`repair_erasure` returns and the word of :func:`repair_vector`.  All
results are deterministic; plans are safe to read concurrently once built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cyclic import CyclicCode
from .field import FieldElement, FiniteField, _poly_eval


class RepairError(RuntimeError):
    """No qualifying repair vector exists (or none could be certified)."""


class ErasedWord(NamedTuple):
    """A length-n word with exactly one erased coordinate."""

    symbols: tuple[FieldElement | None, ...]
    erased_at: int

    @classmethod
    def from_symbols(cls, symbols: Sequence[FieldElement | None]) -> ErasedWord:
        holes = [i for i, s in enumerate(symbols) if s is None]
        if len(holes) != 1:
            raise ValueError(f"exactly one erasure required, found {len(holes)}")
        return cls(tuple(symbols), holes[0])


def repair_stride(n: int, r: int) -> int:
    if r < 1 or n % (r + 1) != 0:
        raise ValueError(f"(r + 1) = {r + 1} must divide n = {n}")
    return n // (r + 1)


def coordinate_coset(n: int, r: int, i: int) -> tuple[int, ...]:
    """All r+1 coordinates sharing i's residue class modulo n/(r+1)."""
    s = repair_stride(n, r)
    return tuple(range(i % s, n, s))


# ---------------------------------------------------------------------------
# Repair vectors.


def _has_grid_factor(field: FiniteField, coeffs: Sequence[int], s: int, c: int) -> bool:
    """Whether x^s - c divides sum coeffs[i] x^i: modulo x^s - c, x^(j+s*t)
    is c^t x^j, so remainder coefficient j is coeffs[j::s] at c."""
    return not any(_poly_eval(field, coeffs[j::s], c) for j in range(s))


def _grid_constant(base: CyclicCode, r: int) -> int:
    """The first c, by index, for which x^s - c divides g, s = n/(r+1); then
    c^(r+1) = 1, since g divides x^n - 1."""
    if base.k < 1:
        raise RepairError("repair plans need a code of dimension >= 1")
    field, s = base.field, repair_stride(base.n, r)
    for c in range(1, field.q):
        if _has_grid_factor(field, base.g.coeffs, s, c):
            return c
    raise RepairError(f"g has no factor x^{s} - c")


def _powers(field: FiniteField, c: int, r: int) -> tuple[int, ...]:
    """(1, c, ..., c^r)."""
    return tuple(field.pow(c, t) for t in range(r + 1))


def _class_word(base: CyclicCode, r: int, c: int, i: int) -> tuple[int, ...]:
    """The word with entry c^t at i mod s + s*t for t = 0..r, zero elsewhere."""
    word = [0] * base.n
    for p, value in zip(coordinate_coset(base.n, r, i), _powers(base.field, c, r)):
        word[p] = value
    return tuple(word)


def repair_vector(code, i: int) -> tuple[FieldElement, ...]:
    """Dual codeword used to repair coordinate i of an LrcCode, as a
    full-length word."""
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range for length {code.n}")
    field, zero = code.field, code.field.from_index(0)
    word = _class_word(code.base, code.r, code.grid_constant, i)
    return tuple(field.from_index(v) if v else zero for v in word)


def repair_plan(code) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per coordinate i = i mod s + s*u, the r pairs (i mod s + s*t,
    -c^(t-u)) over t != u that repair of c_i reads: i's repair vector scaled
    to -1 at i, its entries as indices.  Raises RepairError when the code
    has no repair vectors."""
    field, n, r = code.field, code.n, code.r
    s = repair_stride(n, r)
    neg = [field.neg(value) for value in _powers(field, code.grid_constant, r)]
    return tuple(
        tuple((i % s + s * t, neg[(t - i // s) % (r + 1)]) for t in range(r + 1) if t != i // s)
        for i in range(n)
    )


def repair_erasure(code, word: ErasedWord) -> FieldElement:
    """Recover the erased symbol c_i = -a_i^{-1} * sum over the coset of
    a_j c_j, reading only the r other coset coordinates, through the code's
    cached repair plan.  A read symbol from another field raises
    ValueError."""
    field, n = code.field, code.n
    if len(word.symbols) != n:
        raise ValueError(f"word length {len(word.symbols)} != n = {n}")
    i = word.erased_at
    if not 0 <= i < n:
        raise ValueError(f"coordinate {i} out of range for length {n}")
    add, mul = field.add, field.mul
    acc = 0
    for j, coeff in code.repair_plan[i]:
        symbol = word.symbols[j]
        if symbol is None:
            raise ValueError("repair reads an erased coordinate")
        if symbol.field is not field:
            raise ValueError(f"symbol {symbol!r} at {j} not in {field}")
        acc = add(acc, mul(coeff, symbol.index))
    return field.from_index(acc)


# ---------------------------------------------------------------------------
# Locality certification.


class LocalityCheck(NamedTuple):
    """Outcome of a locality-r_test check.

    ok is True, method "coset-witness", when g has a factor x^s - c, s =
    n/(r_test+1): then ``stride`` is s and ``entries`` the indices
    (1, c, ..., c^r_test) that the dual word on every residue class mod s
    carries, spelled out per coordinate by ``to_dict``.  Otherwise ok is
    None, method "no-grid-word", and the claim is unsettled.
    """

    ok: bool | None
    r_test: int
    method: str
    stride: int | None = None
    entries: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok, "r_test": self.r_test, "method": self.method}
        if self.entries is not None:
            n = self.stride * (self.r_test + 1)
            out["witnesses"] = [
                {"coordinate": i, "support": list(coordinate_coset(n, self.r_test, i)),
                 "entries": list(self.entries)}
                for i in range(n)
            ]
        return out


def verify_locality(code, r_test: int | None = None) -> LocalityCheck:
    """Check that every coordinate lies in the support of a dual codeword of
    weight at most r_test + 1 (the linear-code locality criterion).

    The one certificate is a factor x^s - c of g, s = n/(r_test+1): then
    every coordinate's residue class mod s carries the dual word
    (1, c, ..., c^r_test).  Without one (or when r_test + 1 does not divide
    n) the check reports ok = None, "no-grid-word": this can fail to
    certify a locality claim but never refutes one.  Every code the CLI
    loads is rebuilt by ``construct``, and every constructed code has the
    factor.
    """
    base = getattr(code, "base", code)
    r = r_test if r_test is not None else getattr(code, "r", None)
    if r is None:
        raise ValueError("a locality value is required for a bare cyclic code")
    if r < 1:
        raise ValueError(f"locality must be >= 1, got {r}")
    if base.n % (r + 1) == 0:
        try:
            # the code's own r reads the constant cached on it
            c = code.grid_constant if r == getattr(code, "r", None) else _grid_constant(base, r)
        except RepairError:
            pass
        else:
            return LocalityCheck(True, r, "coset-witness", base.n // (r + 1), _powers(base.field, c, r))
    return LocalityCheck(None, r, "no-grid-word")
