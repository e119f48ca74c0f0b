from __future__ import annotations

from functools import reduce

import pytest

from cyclic_lrc.constructions import ALL_SCHEMES, LrcCode, construct, enumerate_valid_params
from cyclic_lrc.cyclic import CyclicCode, min_distance_exhaustive
from cyclic_lrc.field import make_field
from cyclic_lrc.poly import Poly
from cyclic_lrc.repair import (
    ErasedWord,
    RepairError,
    _grid_constant,
    _has_grid_factor,
    coordinate_coset,
    repair_erasure,
    repair_vector,
    verify_locality,
)


def _dot(u, v, field):
    """u, a word of elements, times v, a generator row of indices, as an
    index."""
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a.index, b))
    return acc


def _reads(code):
    """For each coordinate, the r other coordinates its repair reads."""
    return tuple(tuple(j for j, _ in pairs) for pairs in code.repair_plan)


def test_repair_groups(code_8_4_4):
    groups = _reads(code_8_4_4)
    assert groups[0] == (2, 4, 6)
    assert groups[3] == (1, 5, 7)
    assert all(len(g) == 3 for g in groups)


def test_repair_groups_single_coset_degenerate():
    code = construct("ex-3.3", 3, n=4, r=3, d=2)  # stride 1: one coset of everything
    groups = _reads(code)
    assert groups[1] == (0, 2, 3)


def test_repair_vector_q5(code_8_4_4):
    vec = repair_vector(code_8_4_4, 0)
    support = [j for j, e in enumerate(vec) if e.index]
    assert support == [0, 2, 4, 6]
    assert [vec[j].index for j in support] == [1, 2, 4, 3]
    # independent check: orthogonal to every generator row
    for row in code_8_4_4.base.generator_matrix:
        assert _dot(vec, row, code_8_4_4.field) == 0


def test_repair_vector_weight_and_normalization(acceptance_codes):
    for code in acceptance_codes.values():
        for i in range(code.n):
            vec = repair_vector(code, i)
            support = [j for j, e in enumerate(vec) if e.index]
            assert len(support) == code.r + 1
            assert i in support
            assert vec[support[0]].index == 1
            for row in code.base.generator_matrix:
                assert _dot(vec, row, code.field) == 0


def test_repair_vectors_shift_compatible(code_8_4_4):
    n = code_8_4_4.n
    for i in range(n):
        vec = repair_vector(code_8_4_4, i)
        nxt = repair_vector(code_8_4_4, (i + 1) % n)
        shifted = vec[-1:] + vec[:-1]
        # equal up to a scalar factor
        anchor = next(j for j, e in enumerate(shifted) if e.index)
        f = code_8_4_4.field
        scale = f.mul(nxt[anchor].index, f.inv(shifted[anchor].index))
        assert all(nxt[j].index == f.mul(shifted[j].index, scale) for j in range(n))


def test_repair_vector_via_structural_witness():
    # coset width 12 whose restricted solution space has dimension 10: the
    # grid witness from the factor x - c of g gives the vector in closed form
    code = construct("ex-3.2", 13, n=12, r=11, d=11)
    vec = repair_vector(code, 5)
    assert sum(1 for e in vec if e.index) == 12
    for row in code.base.generator_matrix:
        assert _dot(vec, row, code.field) == 0


def test_bare_code_without_grid_factor_is_uncertified():
    # x^2 + 1 is irreducible over GF(3), so a hand-built g has no factor
    # x - c and no coset plan exists at r = 3; the claim is left unsettled,
    # not refuted
    f3 = make_field(3)
    base = CyclicCode(f3, 4, Poly(f3, [1, 0, 1]))
    with pytest.raises(RepairError):
        _grid_constant(base, 3)
    check = verify_locality(LrcCode(base, 3, 3, "ex-3.2", beta=None))
    assert check.to_dict() == {"ok": None, "r_test": 3, "method": "no-grid-word"}
    # at r = 1 the factor x^2 - 2 is g itself
    assert verify_locality(LrcCode(base, 1, 2, "ex-3.2", beta=None)).method == "coset-witness"


def test_verify_locality_without_grid_word_is_unsettled(code_8_4_4):
    # the degree-4 g of the [8, 4, 4] code has no factor x^4 - c, so its
    # claim at r = 1 (Singleton-type bound 2) has no grid word and is not
    # settled
    code = LrcCode(code_8_4_4.base, 1, 2, "thm-1.1-ii", beta=None)
    assert verify_locality(code) == (None, 1, "no-grid-word", None, None)


def _class_word_is_dual(base, r, c):
    """The test the grid constant was found by before the division: the
    class-0 word (c^t at s*t, t = 0..r) against every generator row."""
    field, s = base.field, base.n // (r + 1)
    word = {s * t: field.pow(c, t) for t in range(r + 1)}
    return all(
        not reduce(field.add, (field.mul(w, row[j]) for j, w in word.items()), 0)
        for row in base.generator_matrix
    )


def test_division_finds_the_class_word_grid_constant():
    # a codeword a has sum_t c^t a_(i+st) = 0 for every i exactly when
    # a = 0 mod x^s - c, so both tests pick the same first c on every row
    rows = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            base = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d).base
            expected = next(c for c in range(1, rec.q) if _class_word_is_dual(base, rec.r, c))
            assert _grid_constant(base, rec.r) == expected, rec
            rows += 1
    assert rows == 1756


def test_residue_fold_agrees_with_division(rng):
    # x^s - c divides g exactly when divmod leaves remainder zero, for every
    # c of the field: on random multiples of a random x^s - c, and on
    # random polynomials, over a prime field and an extension
    for field in (make_field(13), make_field(2, 4)):
        for _ in range(60):
            s, c = rng.randrange(1, 6), rng.randrange(1, field.q)
            cofactor = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 9))])
            for g in (cofactor * Poly(field, [field.neg(c)] + [0] * (s - 1) + [1]), cofactor):
                for test in range(1, field.q):
                    divisor = Poly(field, [field.neg(test)] + [0] * (s - 1) + [1])
                    assert _has_grid_factor(field, g.coeffs, s, test) == divmod(g, divisor)[1].is_zero


def test_erased_word_validation(f5):
    with pytest.raises(ValueError, match="exactly one"):
        ErasedWord.from_symbols([None, None, f5.from_index(1)])
    with pytest.raises(ValueError, match="exactly one"):
        ErasedWord.from_symbols([f5.from_index(1), f5.from_index(0)])
    word = ErasedWord.from_symbols([f5.from_index(1), None, f5.from_index(0)])
    assert word.erased_at == 1


def test_repair_worked_example(code_8_4_4):
    # erase coordinate 0 of the codeword g itself
    word = [code_8_4_4.field.from_index(code_8_4_4.base.g.coefficient(i)) for i in range(8)]
    expected = word[0]
    word[0] = None
    recovered = repair_erasure(code_8_4_4, ErasedWord.from_symbols(word))
    assert recovered == expected
    assert recovered.index == 1


def test_repair_zero_codeword(code_8_4_4):
    f5 = code_8_4_4.field
    for i in range(8):
        word = [f5.from_index(0)] * 8
        word[i] = None
        assert repair_erasure(code_8_4_4, ErasedWord.from_symbols(word)).index == 0


def test_repair_round_trip_all_positions(acceptance_codes, rng):
    for code in acceptance_codes.values():
        field = code.field
        for _ in range(20):
            message = [field.from_index(rng.randrange(field.q)) for _ in range(code.k)]
            codeword = code.base.encode_systematic(message)
            for i in range(code.n):
                erased = list(codeword)
                erased[i] = None
                got = repair_erasure(code, ErasedWord.from_symbols(erased))
                assert got == codeword[i]


def test_repair_rejects_a_symbol_from_another_field(code_8_4_4, f13):
    # coordinate 0 reads 2, 4 and 6; the plan sums indices, so the field of
    # every read symbol is checked at the edge
    f5 = code_8_4_4.field
    symbols = [None] + [f5.from_index(0)] * 7
    symbols[4] = f13.from_index(1)
    with pytest.raises(ValueError, match="not in GF\\(5\\)"):
        repair_erasure(code_8_4_4, ErasedWord.from_symbols(symbols))


def test_repair_word_length_checked(code_8_4_4):
    f5 = code_8_4_4.field
    with pytest.raises(ValueError, match="length"):
        repair_erasure(code_8_4_4, ErasedWord.from_symbols([None, f5.from_index(1)]))


def test_repair_rejects_reading_an_erased_coordinate(code_8_4_4):
    # coordinate 0 is repaired from 2, 4 and 6; a second hole at 4 is read
    f5 = code_8_4_4.field
    symbols = [f5.from_index(0)] * 8
    symbols[0] = symbols[4] = None
    with pytest.raises(ValueError, match="erased coordinate"):
        repair_erasure(code_8_4_4, ErasedWord(tuple(symbols), 0))
    symbols[4] = f5.from_index(0)
    with pytest.raises(ValueError, match="out of range"):
        repair_erasure(code_8_4_4, ErasedWord(tuple(symbols), 8))


def test_repair_plan_is_built_once_per_code(monkeypatch):
    from cyclic_lrc import repair

    code = construct("thm-1.1-ii", 5, n=8, r=3)
    plan = code.repair_plan
    assert plan is code.repair_plan
    assert _reads(code) == tuple(
        tuple(j for j in coordinate_coset(code.n, code.r, i) if j != i) for i in range(code.n)
    )

    def no_plan(base, r):
        raise RepairError("grid constant read after the plan was built")

    monkeypatch.setattr(repair, "_grid_constant", no_plan)
    word = [code.field.from_index(code.base.g.coefficient(i)) for i in range(8)]
    expected, word[5] = word[5], None
    assert repair_erasure(code, ErasedWord.from_symbols(word)) == expected


def test_dual_distance_exact(code_8_4_4, code_9_5_3):
    assert min_distance_exhaustive(code_8_4_4.base.dual()) == (4, 4, True, 5**4 - 1)
    assert min_distance_exhaustive(code_9_5_3.base.dual()) == (3, 3, True, 4**4 - 1)


def test_dual_distance_of_parity_check_code():
    f5 = make_field(5)
    code = CyclicCode(f5, 6, Poly(f5, [4, 1]))
    assert min_distance_exhaustive(code.dual()) == (6, 6, True, 5**1 - 1)  # repetition code


def test_dual_distance_at_most_r_plus_1(acceptance_codes):
    for code in acceptance_codes.values():
        dual = code.base.dual()
        scan = min_distance_exhaustive(dual, budget=1 << 23)
        if scan.exact:
            assert scan.lower == scan.upper <= code.r + 1
            assert scan.enumerated == dual.field.q**dual.k - 1
        else:
            # over-budget dual space: the weight-(r+1) repair vector itself
            # certifies the bound
            vec = repair_vector(code, 0)
            assert sum(1 for e in vec if e.index) == code.r + 1
            assert dual.contains(vec)


def test_dual_distance_brute_force_agreement(code_8_4_4):
    dual = code_8_4_4.base.dual()
    best = dual.n + 1
    field = dual.field
    for t in range(1, field.q**dual.k):
        digits = []
        tt = t
        for _ in range(dual.k):
            tt, d = divmod(tt, field.q)
            digits.append(d)
        word = [0] * dual.n
        for j, d in enumerate(digits):
            if d:
                for c, g in enumerate(dual.generator_matrix[j]):
                    word[c] = field.add(word[c], field.mul(d, g))
        best = min(best, sum(1 for w in word if w))
    assert best == 4
    assert min_distance_exhaustive(dual) == (4, 4, True, 5**4 - 1)


def test_verify_locality_with_coset_witnesses(code_8_4_4):
    # the entries are held once, and spelled out per coordinate in to_dict
    check = verify_locality(code_8_4_4)
    assert check.ok and check.method == "coset-witness"
    assert check.stride == 2 and len(check.entries) == 4
    witnesses = check.to_dict()["witnesses"]
    assert len(witnesses) == 8
    for i, witness in enumerate(witnesses):
        assert witness["coordinate"] == i and i in witness["support"]
        assert len(witness["support"]) == 4
        assert witness["entries"] == list(check.entries) and all(e != 0 for e in check.entries)


def test_coordinate_coset_helper():
    assert coordinate_coset(8, 3, 0) == (0, 2, 4, 6)
    assert coordinate_coset(8, 3, 3) == (1, 3, 5, 7)
