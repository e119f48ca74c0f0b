from __future__ import annotations

import random

import pytest

from cyclic_lrc import (
    ALL_SCHEMES,
    build_any_d_coset,
    build_any_d_subgroup,
    build_d3_unbounded,
    build_d4_double_length,
    build_d4_unbounded,
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
    return build_d3_unbounded(4, 9, 2)


@pytest.fixture(scope="session")
def code_8_4_4(f5):
    return build_d4_unbounded(5, 8, 3)


@pytest.fixture(scope="session")
def acceptance_codes():
    """The six constructed instances the acceptance criteria revolve around."""
    return {
        "d3-unbounded-q4": build_d3_unbounded(4, 9, 2),
        "d4-unbounded-q5": build_d4_unbounded(5, 8, 3),
        "d4-double-q5": build_d4_double_length(5, 3),
        "subgroup-q13-d5": build_any_d_subgroup(13, 12, 2, 5),
        "subgroup-q13-d6": build_any_d_subgroup(13, 12, 2, 6),
        "coset-q11-d10": build_any_d_coset(11, 12, 3, 10),
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
