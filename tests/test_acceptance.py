"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Timing assertions use
the stated per-criterion limits; the scan kernel is warmed once up front so
one-off set-up cost is not billed to any criterion.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time

import pytest

from cyclic_lrc.cli import main as cli_main
from cyclic_lrc.codefile import code_to_dict, dumps_canonical, load_code, save_code
from cyclic_lrc.constructions import (
    ALL_SCHEMES,
    ParameterError,
    construct,
    enumerate_valid_params,
)
from cyclic_lrc.cyclic import DEFAULT_BUDGET, min_distance_exhaustive
from cyclic_lrc.field import make_field
from cyclic_lrc.poly import Poly
from cyclic_lrc.repair import ErasedWord, repair_erasure, verify_locality
from cyclic_lrc.verify import OPTIMAL_CERTIFIED, singleton_bound, verify_optimal


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pay first-call costs (cached field and multiplication tables) on a
    # tiny instance before any timed criterion
    code = construct("ex-3.2", 7, n=6, r=2, d=2)
    min_distance_exhaustive(code.base)
    verify_locality(code)


def _pass(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def _certify(code, budget=DEFAULT_BUDGET):
    report = verify_optimal(code, budget=budget)
    assert report.verdict == OPTIMAL_CERTIFIED, report.to_dict()
    return report


def test_criterion_1_distance3_family(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["d3-unbounded-q4"]
    assert code.k == 5
    report = _certify(code)
    assert report.distance == (3, 3, True, 4**5 - 1)
    assert report.dual_distance.exact and report.dual_distance.upper <= 3
    assert verify_locality(code).ok
    assert singleton_bound(9, 5, 2) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("criterion-1", f"[9,5,3] over GF(4) certified in {elapsed:.3f}s")


def test_criterion_2_distance4_family(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["d4-unbounded-q5"]
    assert code.k == 4
    report = _certify(code)
    assert report.distance == (4, 4, True, 5**4 - 1)
    assert report.dual_distance.exact and report.dual_distance.upper <= 4
    assert verify_locality(code).ok
    assert singleton_bound(8, 4, 3) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("criterion-2", f"[8,4,4] over GF(5) certified in {elapsed:.3f}s")


def test_criterion_3_double_length_family(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["d4-double-q5"]
    assert (code.n, code.k, code.d_claimed) == (8, 4, 4)
    _certify(code)
    with pytest.raises(ParameterError, match="alpha"):
        construct("thm-3.4", 7, r=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("criterion-3", f"q=5 certified, q=7 rejected with alpha diagnostic in {elapsed:.3f}s")


def test_criterion_4_subgroup_family_case1(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["subgroup-q13-d5"]
    assert (code.n, code.k, code.d_claimed) == (12, 6, 5)
    report = _certify(code)
    assert report.distance == (5, 5, True, 13**6 - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass("criterion-4", f"[12,6,5] over GF(13), {13**6 - 1} codewords in {elapsed:.2f}s")


def test_criterion_5_subgroup_family_case2(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["subgroup-q13-d6"]
    assert (code.n, code.k, code.d_claimed) == (12, 5, 6)
    report = _certify(code)
    assert report.distance == (6, 6, True, 13**5 - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass("criterion-5", f"[12,5,6] over GF(13) in {elapsed:.2f}s")


def test_criterion_6_coset_family(acceptance_codes):
    start = time.perf_counter()
    code = acceptance_codes["coset-q11-d10"]
    assert (code.n, code.k, code.d_claimed) == (12, 3, 10)
    report = _certify(code)
    assert report.distance == (10, 10, True, 11**3 - 1)
    # the construction only returns after every coefficient passed the
    # Frobenius check; confirm the result is a base-field polynomial
    assert code.base.g.field is code.field
    assert all(0 <= c < code.field.q for c in code.base.g.coeffs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass("criterion-6", f"[12,3,10] over GF(11) in {elapsed:.3f}s")


def test_criterion_7_singleton_identity_sweep():
    checked = 0
    for r in range(2, 9):
        for n in range(r + 1, 513):
            if n % (r + 1):
                continue
            s = n // (r + 1)
            assert singleton_bound(n, n - 1 - s, r) == 3
            checked += 1
            if r >= 3 and 2 % math.gcd(s, r + 1) == 0:
                assert singleton_bound(n, n - 2 - s, r) == 4
                checked += 1
    assert checked > 500
    _pass("criterion-7", f"{checked} exact bound identities")


def test_criterion_8_repair_round_trip(acceptance_codes):
    rng = random.Random(0xACCE55)
    start = time.perf_counter()
    repaired = 0
    for code in acceptance_codes.values():
        field = code.field
        for _ in range(100):
            message = [field.from_index(rng.randrange(field.q)) for _ in range(code.k)]
            codeword = code.base.encode_systematic(message)
            for i in range(code.n):
                erased = list(codeword)
                erased[i] = None
                assert repair_erasure(code, ErasedWord.from_symbols(erased)) == codeword[i]
                repaired += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass("criterion-8", f"{repaired} exact repairs in {elapsed:.2f}s")


def test_criterion_9_property_suites(acceptance_codes, tmp_path):
    rng = random.Random(0xB0B)

    # field axioms, >= 10^4 sampled triples per field in use: GF(q), and
    # GF(q^2), the largest field that building or bounding a code forms
    fields = set()
    for code in acceptance_codes.values():
        fields.add(code.field)
        fields.add(make_field(code.field.p, 2 * code.field.m))
    for field in fields:
        add, mul, elems = field.add, field.mul, range(field.q)
        for _ in range(10_000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(a, b) == mul(b, a)
        for _ in range(500):
            a = rng.choice(elems[1:])
            assert mul(a, field.inv(a)) == 1

    # g * h = x^n - 1 for every constructible parameter set in the sweep box
    constructions = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 13, 24):
            if not rec.constructible:
                continue
            code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            assert code.base.g * code.base.h == Poly.x_pow_minus_one(code.field, code.n)
            constructions += 1
            # BCH consistency wherever the oracle is affordable
            if rec.q**rec.k <= 1 << 20:
                scan = min_distance_exhaustive(code.base)
                assert scan == (scan.upper, scan.upper, True, rec.q**rec.k - 1)
                assert scan.upper >= code.base.bch_lower_bound()

    # cyclic-shift closure, >= 10^3 sampled shifts
    shifts = 0
    for code in acceptance_codes.values():
        field = code.field
        for _ in range(200):
            message = [field.from_index(rng.randrange(field.q)) for _ in range(code.k)]
            word = list(code.base.encode_systematic(message))
            by = rng.randrange(1, code.n)
            shifted = word[-by:] + word[:-by]
            assert code.base.contains(shifted)
            shifts += 1
    assert shifts >= 1000

    # dual orthogonality over all basis pairs
    for code in acceptance_codes.values():
        dual = code.base.dual()
        for row in code.base.generator_matrix:
            for dual_row in dual.generator_matrix:
                acc = 0
                for a, b in zip(row, dual_row):
                    acc = code.field.add(acc, code.field.mul(a, b))
                assert acc == 0

    # save/load byte identity
    for name, code in acceptance_codes.items():
        path = tmp_path / f"{name}.json"
        save_code(code, path)
        assert dumps_canonical(code_to_dict(load_code(path))) == path.read_text()

    _pass(
        "criterion-9",
        f"axioms over {len(fields)} fields, {constructions} constructions, "
        f"{shifts} shift closures",
    )


def test_criterion_10_sweep_integrity(capsys):
    start = time.perf_counter()
    rows = []
    for scheme in ALL_SCHEMES:
        rc = cli_main(
            ["sweep", "--scheme", scheme, "--qmax", "13", "--nmax", "24", "--verify"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows.extend(csv.DictReader(io.StringIO(out)))
    assert rows
    refuted = [r for r in rows if r["verdict"] == "refuted"]
    assert refuted == []
    in_budget = [
        r
        for r in rows
        if r["verdict"] not in ("alpha-membership-failed",)
        and int(r["q"]) ** int(r["k"]) <= DEFAULT_BUDGET
    ]
    not_certified = [r for r in in_budget if r["verdict"] != "optimal-certified"]
    assert not_certified == []
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _pass(
        "criterion-10",
        f"{len(rows)} rows, {len(in_budget)} in-budget all certified, "
        f"0 refuted, {elapsed:.1f}s",
    )
