"""Repair groups, repair vectors, single-erasure repair and locality checks.

For the codes built here every coordinate i is repaired inside its residue
class modulo s = n/(r+1): a dual codeword supported on that class with all
entries nonzero expresses c_i as a combination of the other r class members.
Such a word has a closed form.  When g has a factor x^s - c, the quotient
(x^n - 1)/(x^s - c) is a geometric word on the stride grid, and its
coordinate reversal is a dual codeword of weight r+1.  That grid witness,
checked against the generator once, is the one source of repair vectors:
the vector for coordinate i is its cyclic shift onto i's class.  The dual of
a cyclic code is cyclic, so every shift of a dual word is a dual word and
needs no second check.
A code without such a factor has no repair plan; its locality is decided by
the exhaustive dual scan.

Repair reads a plan built once per code from those vectors: for each
coordinate i, the r pairs (j, -a_i^{-1} * a_j) over the other members of
i's class, so that c_i is the sum of the products with the read symbols.
The plan is cached on the code object (``LrcCode.repair_plan``).  All
results are deterministic; plans are safe to read concurrently once built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from . import kernels
from .cyclic import DEFAULT_BUDGET, CyclicCode, DistanceScan, min_distance_exhaustive
from .field import FieldElement
from .poly import Poly

class RepairError(RuntimeError):
    """No qualifying repair vector exists (or none could be certified)."""


@dataclass(frozen=True)
class ErasedWord:
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


def repair_groups(code) -> tuple[tuple[int, ...], ...]:
    """For each coordinate, the r other coordinates read during its repair."""
    base, r = _base_and_r(code)
    return tuple(
        tuple(j for j in coordinate_coset(base.n, r, i) if j != i) for i in range(base.n)
    )


def _base_and_r(code, r_test: int | None = None) -> tuple[CyclicCode, int]:
    base = getattr(code, "base", code)
    r = r_test if r_test is not None else getattr(code, "r", None)
    if r is None:
        raise ValueError("a locality value is required for a bare cyclic code")
    return base, r


# ---------------------------------------------------------------------------
# Repair vectors.


@functools.lru_cache(maxsize=None)
def _grid_witness(base: CyclicCode, r: int) -> tuple[FieldElement, ...] | None:
    """Full-weight dual word on the stride grid, from a factor x^s - c of g.

    When g has such a factor, (x^n - 1)/(x^s - c) lies in <h> and is
    supported on the exponent grid {0, s, ..., rs} with geometric (nonzero)
    coefficients; its coordinate reversal is a dual codeword of weight r+1.
    The result is validated against the generator basis before use.
    """
    n, field = base.n, base.field
    s = repair_stride(n, r)
    x_pow_s = Poly.make(field, (field.zero(),) * s + (field.one(),))
    for ci in range(1, field.q):
        c = field.from_index(ci)
        divisor = x_pow_s - Poly.make(field, (c,))
        if not (base.g % divisor).is_zero:
            continue
        grid_word = Poly.x_pow_minus_one(field, n) // divisor
        coeffs = grid_word.padded(n)
        witness = tuple(coeffs[n - 1 - j] for j in range(n))
        if _is_dual_word(base, witness):
            return witness
    return None


def _is_dual_word(base: CyclicCode, word: tuple[FieldElement, ...]) -> bool:
    zero = base.field.zero()
    for row in base.generator_matrix:
        acc = zero
        for w, g in zip(word, row):
            if not w.is_zero and not g.is_zero:
                acc = acc + w * g
        if not acc.is_zero:
            return False
    return True


def _cyclic_shift(word: tuple[FieldElement, ...], delta: int) -> tuple[FieldElement, ...]:
    n = len(word)
    delta %= n
    return word[-delta:] + word[:-delta] if delta else word


def _coset_vector(base: CyclicCode, r: int, i: int) -> tuple[FieldElement, ...]:
    """The grid witness shifted onto i's coset, normalized to 1 at the lowest
    support position.  The shift of a dual word of a cyclic code is again a
    dual word, so only the nonzero class entries are checked."""
    if base.k < 1:
        raise RepairError("repair plans need a code of dimension >= 1")
    n, s = base.n, repair_stride(base.n, r)
    positions = coordinate_coset(n, r, i)
    witness = _grid_witness(base, r)
    if witness is None:
        raise RepairError(f"g has no factor x^{s} - c (coordinate {i})")
    # the witness is supported on the class of n - 1
    shifted = _cyclic_shift(witness, positions[0] - (n - 1) % s)
    if any(shifted[p].is_zero for p in positions):
        raise RepairError(
            f"no dual codeword with all-nonzero support on coset {positions} "
            f"(coordinate {i})"
        )
    scale = shifted[positions[0]].inverse()
    full = [base.field.zero()] * n
    for p in positions:
        full[p] = shifted[p] * scale
    return tuple(full)


def repair_vector(code, i: int):
    """Dual codeword used to repair coordinate i, as a full-length word."""
    base, r = _base_and_r(code)
    if not 0 <= i < base.n:
        raise ValueError(f"coordinate {i} out of range for length {base.n}")
    return _coset_vector(base, r, i)


def repair_plan(code) -> tuple[tuple[tuple[int, FieldElement], ...], ...]:
    """Per coordinate i, the r pairs (j, -a_i^{-1} * a_j) that repair of c_i
    reads, a being :func:`repair_vector` (code, i).  Raises RepairError when
    the code has no repair vectors."""
    base, r = _base_and_r(code)
    plan = []
    for i in range(base.n):
        vec = repair_vector(code, i)
        scale = -vec[i].inverse()
        plan.append(tuple((j, scale * vec[j]) for j in coordinate_coset(base.n, r, i) if j != i))
    return tuple(plan)


def repair_erasure(code, word: ErasedWord) -> FieldElement:
    """Recover the erased symbol c_i = -a_i^{-1} * sum over the coset of
    a_j c_j, reading only the r other coset coordinates, through the code's
    cached repair plan."""
    base, _ = _base_and_r(code)
    if len(word.symbols) != base.n:
        raise ValueError(f"word length {len(word.symbols)} != n = {base.n}")
    i = word.erased_at
    if not 0 <= i < base.n:
        raise ValueError(f"coordinate {i} out of range for length {base.n}")
    acc = base.field.zero()
    for j, coeff in code.repair_plan[i]:
        symbol = word.symbols[j]
        if symbol is None:
            raise ValueError("repair reads an erased coordinate")
        acc = acc + coeff * symbol
    return acc


def dual_distance_exact(code, budget: int = DEFAULT_BUDGET) -> DistanceScan:
    """Minimum weight of the dual code; exact when q**(n-k) fits the budget."""
    base = getattr(code, "base", code)
    return min_distance_exhaustive(base.dual(), budget)


# ---------------------------------------------------------------------------
# Locality certification.


@dataclass(frozen=True)
class LocalityCheck:
    """Outcome of a locality-r_test check.

    ok is True with per-coordinate witnesses, False with the first failing
    coordinate, or None when the exhaustive dual scan exceeded its budget.
    Witnesses are (support, entry-index) pairs of dual codewords.
    """

    ok: bool | None
    r_test: int
    method: str
    witnesses: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None = None
    failing_coordinate: int | None = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok, "r_test": self.r_test, "method": self.method}
        if self.witnesses is not None:
            out["witnesses"] = [
                {"coordinate": i, "support": list(sup), "entries": list(ent)}
                for i, (sup, ent) in enumerate(self.witnesses)
            ]
        if self.failing_coordinate is not None:
            out["failing_coordinate"] = self.failing_coordinate
        return out


def _sparse(word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    support = tuple(j for j, v in enumerate(word) if not v.is_zero)
    return support, tuple(word[j].index for j in support)


def verify_locality(code, r_test: int | None = None, budget: int = DEFAULT_BUDGET) -> LocalityCheck:
    """Check that every coordinate lies in the support of a dual codeword of
    weight at most r_test + 1 (the linear-code locality criterion).

    Coset-structured witnesses are tried first when (r_test + 1) divides n;
    otherwise (or on failure) the dual message space is scanned exhaustively,
    which also proves negative answers.  A scan whose dual space exceeds the
    budget reports ok = None.
    """
    base, r = _base_and_r(code, r_test)
    if r < 1:
        raise ValueError(f"locality must be >= 1, got {r}")
    if base.n % (r + 1) == 0 and base.k >= 1:
        try:
            witnesses = tuple(_sparse(_coset_vector(base, r, i)) for i in range(base.n))
            return LocalityCheck(True, r, "coset-witness", witnesses)
        except RepairError:
            pass
    dual = base.dual()
    if dual.k == 0:
        return LocalityCheck(False, r, "exhaustive", failing_coordinate=0)
    total = base.field.q**dual.k
    if total > budget:
        return LocalityCheck(None, r, "budget-exceeded")
    matrix = kernels.matrix_indices(dual.generator_matrix)
    counters = kernels.covering_witnesses(matrix, base.field, r + 1, total - 1)
    if (counters < 0).any():
        failing = int(next(i for i, t in enumerate(counters) if t < 0))
        return LocalityCheck(False, r, "exhaustive", failing_coordinate=failing)
    witnesses = []
    for t in counters:
        message = kernels.message_symbols(base.field, int(t), dual.k)
        word = (Poly.make(base.field, message) * dual.g).padded(base.n)
        witnesses.append(_sparse(word))
    return LocalityCheck(True, r, "exhaustive", tuple(witnesses))
