from __future__ import annotations

import random
import sys

import pytest

# before the package is imported: a bytecode cache in src/ would spare every
# later CLI process on this checkout its compile, so start-up timings taken
# there would measure another start-up than a fresh checkout's
sys.dont_write_bytecode = True

from cyclic_lrc import (
    ALL_SCHEMES,
    construct,
    enumerate_valid_params,
    make_field,
)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def code_9_5_3(f4):
    return construct("thm-1.1-i", 4, n=9, r=2)


@pytest.fixture(scope="session")
def code_8_4_4(f5):
    return construct("thm-1.1-ii", 5, n=8, r=3)


@pytest.fixture(scope="session")
def acceptance_codes():
    """The six constructed instances the acceptance criteria revolve around."""
    return {
        "d3-unbounded-q4": construct("thm-1.1-i", 4, n=9, r=2),
        "d4-unbounded-q5": construct("thm-1.1-ii", 5, n=8, r=3),
        "d4-double-q5": construct("thm-3.4", 5, r=3),
        "subgroup-q13-d5": construct("ex-3.2", 13, n=12, r=2, d=5),
        "subgroup-q13-d6": construct("ex-3.2", 13, n=12, r=2, d=6),
        "coset-q11-d10": construct("ex-3.3", 11, n=12, r=3, d=10),
    }


@pytest.fixture(scope="session")
def criterion_box_codes():
    """(record, code) for every constructible row of the five schemes at
    ``--qmax 13 --nmax 24``, in sweep order."""
    return [
        (rec, construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d))
        for scheme in ALL_SCHEMES
        for rec in enumerate_valid_params(scheme, 13, 24)
        if rec.constructible
    ]


@pytest.fixture()
def rng():
    return random.Random(0x5EED)
