"""Encode and repair against polynomial-division references.

``encode_systematic`` reads the cached systematic parity matrix and
``repair_erasure`` the cached per-coordinate repair plan; the references here
divide polynomials and use no plan, so every codeword and every repaired
symbol must match them exactly.
"""

from __future__ import annotations

import random

import pytest

from cyclic_lrc.constructions import ALL_SCHEMES, construct, enumerate_valid_params
from cyclic_lrc.poly import Poly
from cyclic_lrc.repair import ErasedWord, repair_erasure

# (scheme, q, n, r, d) of the eight codes the benchmark's data path runs
DATA_PATH_CODES = (
    ("thm-1.1-i", 4, 9, 2, None),
    ("thm-1.1-ii", 5, 8, 3, None),
    ("ex-3.2", 13, 12, 2, 5),
    ("ex-3.3", 11, 12, 3, 10),
    ("thm-1.1-ii", 16, 15, 4, None),
    ("ex-3.2", 25, 24, 3, 6),
    ("ex-3.2", 31, 30, 4, 7),
    ("thm-3.4", 17, None, 3, None),
)


def _reference_encode(base, message):
    # x^(n-k) m(x) minus its remainder mod g: the negated remainder fills
    # the n - k low coordinates and the message the k high ones
    field, parity, high = base.field, base.n - base.k, tuple(e.index for e in message)
    remainder = divmod(Poly(field, (0,) * parity + high), base.g)[1]
    low = (field.neg(remainder.coefficient(i)) for i in range(parity))
    return tuple(map(field.from_index, (*low, *high)))


def _check_code(code, rng, messages=5):
    field = code.field
    for _ in range(messages):
        message = [field.from_index(rng.randrange(field.q)) for _ in range(code.k)]
        word = code.base.encode_systematic(message)
        assert word == _reference_encode(code.base, message), code
        assert code.base.contains(word)
        for i in range(code.n):
            erased = list(word)
            erased[i] = None
            assert repair_erasure(code, ErasedWord.from_symbols(erased)) == word[i], (code, i)


@pytest.mark.parametrize("params", DATA_PATH_CODES, ids=lambda p: f"{p[0]}-q{p[1]}")
def test_data_path_codes_match_reference(params):
    scheme, q, n, r, d = params
    _check_code(construct(scheme, q, n=n, r=r, d=d), random.Random(q))


def test_criterion_box_codes_match_reference():
    rng = random.Random(0x5EED)
    rows = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 13, 24):
            if rec.constructible:
                _check_code(construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d), rng)
                rows += 1
    assert rows == 260
