from __future__ import annotations

import pytest

from cyclic_lrc import construct, kernels
from cyclic_lrc.cyclic import CyclicCode
from cyclic_lrc.field import make_field
from cyclic_lrc.poly import Poly


def _message(field, t, k):
    """Message indices with counter t in the kernels' order: symbol j has
    the index (t // q**j) % q."""
    return [t // field.q**j % field.q for j in range(k)]


def _reference_supports(matrix, field, count):
    """Tiny exact reference: the support of the codeword of every message
    1..count, recomputed with the field's index arithmetic in full counter
    order."""
    k, n = len(matrix), len(matrix[0])
    add, mul = field.add, field.mul
    supports = []
    for t in range(1, count + 1):
        word = [0] * n
        for m, row in zip(_message(field, t, k), matrix):
            if m:
                word = [add(w, mul(m, g)) for w, g in zip(word, row)]
        supports.append([c for c, w in enumerate(word) if w])
    return supports


def _reference_min_weight(supports, count, n):
    return min((len(s) for s in supports[:count]), default=n + 1)


def _reference_witnesses(supports, count, n, max_weight):
    """First counter in full order covering each coordinate."""
    witness = [-1] * n
    for t, support in enumerate(supports[:count], start=1):
        if 0 < len(support) <= max_weight:
            for c in support:
                if witness[c] < 0:
                    witness[c] = t
    return witness


def _small_codes():
    f5 = make_field(5)
    f4 = make_field(2, 2)
    yield CyclicCode(f5, 8, Poly(f5, [1, 2, 0, 1, 1]))
    yield CyclicCode(f4, 9, Poly(f4, [3, 3, 0, 1, 1]))
    yield CyclicCode(f5, 6, Poly(f5, [4, 1]))


def _reference_codes():
    """Small codes over GF(5), GF(4), GF(9) and GF(13)."""
    yield from _small_codes()
    yield construct("ex-3.3", 9, n=10, r=9, d=8).base
    yield construct("ex-3.2", 13, n=12, r=2, d=9).base


# a block budget this small forces many table widths and base chunks
@pytest.mark.parametrize("block_bytes", [None, 40], ids=["default-blocks", "tiny-blocks"])
def test_scan_matches_reference(block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_bytes)
    for code in _reference_codes():
        q, k, n = code.field.q, code.k, code.n
        matrix = code.generator_matrix
        total = q**k - 1
        supports = _reference_supports(matrix, code.field, total)
        d = _reference_min_weight(supports, total, n)
        for count in sorted({total, total // 3, q ** (k - 1), q ** (k - 1) - 1, 2 * q ** (k - 1), 7}):
            assert kernels.min_nonzero_weight(matrix, code.field, count) == (
                _reference_min_weight(supports, count, n)
            ), (code, count)
            for max_weight in (d, d + 1, n):
                got = kernels.covering_witnesses(matrix, code.field, max_weight, count)
                assert got == _reference_witnesses(supports, count, n, max_weight), (
                    code, count, max_weight,
                )


def _wide_field_generators():
    """Rows (1, ..., 1) and (-b_0, ..., -b_4), b_j being the element of index
    q - 1 - j, over GF(1021), whose first table level starts from one nonzero
    mask, over GF(2^10), ten digits per symbol, and over GF(2^11), whose q
    is past 1024.  The words of weight 4 are ``b_j * row0 + row1``: the last
    words of the low table."""
    for field in (make_field(1021), make_field(2, 10), make_field(2, 11)):
        yield field, ((1,) * 5, tuple(field.neg(field.q - 1 - j) for j in range(5)))


@pytest.mark.parametrize("block_bytes", [None, 40], ids=["default-blocks", "tiny-blocks"])
def test_wide_field_scan_matches_reference(block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_bytes)
    for field, matrix in _wide_field_generators():
        q, n = field.q, len(matrix[0])
        # counters up to 2q - 1 already meet every scalar class
        top = 3 * q
        supports = _reference_supports(matrix, field, top)
        d = _reference_min_weight(supports, top, n)
        assert d == n - 1
        for count in (7, q - 1, q, q + 1, 2 * q - 1, top):
            assert kernels.min_nonzero_weight(matrix, field, count) == (
                _reference_min_weight(supports, count, n)
            ), (field, count)
            for max_weight in (d, n):
                got = kernels.covering_witnesses(matrix, field, max_weight, count)
                assert got == _reference_witnesses(supports, count, n, max_weight), (
                    field, count, max_weight,
                )


def test_witness_scan_covers_every_coordinate():
    code = next(_small_codes())
    dual = code.dual()
    matrix = dual.generator_matrix
    total = code.field.q**dual.k - 1
    counters = kernels.covering_witnesses(matrix, code.field, 4, total)
    assert all(t > 0 for t in counters)
    # reconstruct each witness and verify the claim it certifies
    for coord, t in enumerate(counters):
        message = _message(code.field, t, dual.k)
        product = Poly(code.field, message) * dual.g
        assert product.degree < code.n
        word = [product.coefficient(i) for i in range(code.n)]
        weight = sum(1 for w in word if w)
        assert 0 < weight <= 4
        assert word[coord]


def test_witness_scan_reports_uncovered_coordinates():
    code = next(_small_codes())
    dual = code.dual()
    matrix = dual.generator_matrix
    # weight threshold below the dual distance: nothing qualifies
    counters = kernels.covering_witnesses(matrix, code.field, 2, code.field.q**dual.k - 1)
    assert counters == [-1] * code.n


def test_op_tables_agree_with_element_arithmetic():
    for p, m in [(5, 1), (5, 2), (2, 10), (2, 11)]:
        field = make_field(p, m)
        mul = kernels.op_tables(field)
        assert len(mul) == m and all(len(row) == m for row in mul)
        for i in range(m):
            for a in range(m):
                assert mul[i][a] == field.digits(field.mul(p**i, p**a)), (field, i, a)


def test_scan_argument_validation(f5):
    code = CyclicCode(f5, 6, Poly(f5, [4, 1]))
    matrix = code.generator_matrix
    with pytest.raises(ValueError):
        kernels.min_nonzero_weight(matrix, f5, 0)
    with pytest.raises(ValueError):
        kernels.min_nonzero_weight(matrix, f5, 5**5)
    with pytest.raises(ValueError):
        kernels.min_nonzero_weight((), f5, 1)
