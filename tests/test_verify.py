from __future__ import annotations

import math
import time
from functools import cached_property

import pytest

from cyclic_lrc.constructions import ALL_SCHEMES, LrcCode, construct, enumerate_valid_params
from cyclic_lrc.cyclic import CyclicCode
from cyclic_lrc.field import make_field, primitive_nth_root
from cyclic_lrc.poly import Poly
from cyclic_lrc.verify import (
    INDETERMINATE,
    OPTIMAL_CERTIFIED,
    OPTIMAL_CONSISTENT,
    REFUTED,
    VERDICT_EXIT_CODES,
    render_verdict,
    singleton_bound,
    verify_optimal,
)


def _bound_reference(n, k, r):
    # duplicated arithmetic path, kept deliberately separate
    return n - k - ((k + r - 1) // r) + 2


@pytest.mark.parametrize(
    "n, k, r, expected",
    [(9, 5, 2, 3), (12, 6, 2, 5), (8, 4, 3, 4), (12, 3, 3, 10), (12, 5, 2, 6)],
)
def test_singleton_bound_examples(n, k, r, expected):
    assert singleton_bound(n, k, r) == expected
    assert singleton_bound(n, k, r) == _bound_reference(n, k, r)


def test_singleton_bound_degenerate_full_dimension():
    # k = n: the formula value is returned as-is
    assert singleton_bound(8, 8, 3) == 2 - math.ceil(8 / 3)


def test_singleton_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        singleton_bound(8, 0, 3)
    with pytest.raises(ValueError):
        singleton_bound(8, 9, 3)
    with pytest.raises(ValueError):
        singleton_bound(8, 4, 0)


def test_verify_certifies_distance3_instance(code_9_5_3):
    report = verify_optimal(code_9_5_3)
    assert report.verdict == OPTIMAL_CERTIFIED
    assert report.distance == (3, 3, True, 4**5 - 1)
    assert report.dual_distance.exact and report.dual_distance.upper <= 3
    assert report.locality.ok
    assert report.singleton_rhs == 3
    assert not report.degenerate


def test_verify_certifies_distance4_instance(code_8_4_4):
    report = verify_optimal(code_8_4_4)
    assert report.verdict == OPTIMAL_CERTIFIED
    assert report.distance == (4, 4, True, 5**4 - 1)
    assert report.dual_distance.exact and report.dual_distance.upper <= 4
    assert report.bch_lower_bound == 4


def test_verify_budget_degrades_to_consistent(code_8_4_4):
    # over the budget the verdict reads the proven BCH bound: the
    # thm-1.1-ii code [12, 7, 4] over GF(5) has BCH bound 3 < d, so it is
    # only consistent, while [8, 4, 4] has BCH bound 4 = d and is certified
    code = construct("thm-1.1-ii", 5, n=12, r=3)
    report = verify_optimal(code, budget=100)
    assert report.verdict == OPTIMAL_CONSISTENT
    assert report.distance == (3, 6, False, 0)
    assert verify_optimal(code).verdict == OPTIMAL_CERTIFIED
    report = verify_optimal(code_8_4_4, budget=100)
    assert report.verdict == OPTIMAL_CERTIFIED
    assert report.distance == (4, 5, False, 0)


def test_verify_refutes_corrupted_code(code_8_4_4):
    # same [8, 4] shape and a valid Singleton claim, but the generator
    # x^4 - 1 has a weight-2 multiple, so the distance claim is false
    f5 = make_field(5)
    base = CyclicCode(f5, 8, Poly.x_pow_minus_one(f5, 4))
    corrupted = LrcCode(base, 3, 4, "thm-1.1-ii", beta=code_8_4_4.beta)
    report = verify_optimal(corrupted)
    assert report.verdict == REFUTED
    assert report.distance == (2, 2, True, 5**4 - 1)


def test_claim_without_grid_word_is_indeterminate():
    # the [5, 1, 5] repetition code over GF(3) meets the Singleton-type bound
    # at r = 4 and truly has that locality, but g = 1 + x + ... + x^4 has no
    # root in GF(3), so no grid word certifies it; it is not refuted
    f3 = make_field(3)
    code = LrcCode(CyclicCode(f3, 5, Poly(f3, [1] * 5)), 4, 5, "ex-3.2", beta=None)
    verdict, distance, locality = render_verdict(code)
    assert distance == (5, 5, True, 3**1 - 1)
    assert locality.to_dict() == {"ok": None, "r_test": 4, "method": "no-grid-word"}
    assert verdict == INDETERMINATE
    assert verify_optimal(code).verdict == INDETERMINATE


def test_verify_budget_limits_distance_but_not_coset_locality():
    f13 = make_field(13)
    beta = primitive_nth_root(f13, 12)
    base = CyclicCode(f13, 12, Poly.from_roots(f13, [f13.pow(beta.index, e) for e in (0, 1, 2, 3, 6, 9)]))
    code = construct("ex-3.2", 13, n=12, r=2, d=5)
    assert code.base == base
    report = verify_optimal(code, budget=200)
    assert report.locality.ok  # coset witnesses need no budget
    # the stated zeros 0..3 give BCH bound 5 = d, so no scan is needed to certify
    assert report.distance == (5, 7, False, 0)
    assert report.verdict == OPTIMAL_CERTIFIED
    # the same g built by hand states no zeros, so nothing certifies it
    report = verify_optimal(LrcCode(base, 2, 5, "ex-3.2", beta=beta), budget=200)
    assert (report.distance, report.verdict) == ((1, 7, False, 0), OPTIMAL_CONSISTENT)
    report = verify_optimal(code, budget=13**6 - 1)
    assert (report.distance, report.verdict) == ((5, 5, True, 13**6 - 1), OPTIMAL_CERTIFIED)


def test_root_exponents_are_found_once_per_code(monkeypatch):
    # over budget, the distance scan and the report both read the code's BCH
    # bound, and the dual scan reads the dual's; the dual's zeros come from
    # the code's, and each bound walks its zeros once
    found, walks = [], []

    def counting(log, name):
        real = getattr(CyclicCode, name).func

        def count(code):
            log.append(code)
            return real(code)

        cached = cached_property(count)
        cached.__set_name__(CyclicCode, name)
        monkeypatch.setattr(CyclicCode, name, cached)

    counting(found, "root_exponents")
    counting(walks, "_bch")
    code = construct("ex-3.2", 13, n=12, r=2, d=5)
    report = verify_optimal(code, budget=200)
    assert not report.distance.exact and not report.dual_distance.exact
    assert report.bch_lower_bound == report.distance.lower == 5
    assert found == [code.base, code.base.dual()]
    assert walks == [code.base, code.base.dual()]


def test_exit_code_mapping():
    assert VERDICT_EXIT_CODES[OPTIMAL_CERTIFIED] == 0
    assert VERDICT_EXIT_CODES[OPTIMAL_CONSISTENT] == 2
    assert VERDICT_EXIT_CODES[REFUTED] == 3
    assert VERDICT_EXIT_CODES[INDETERMINATE] == 4


def test_report_serialization_shape(code_8_4_4):
    data = verify_optimal(code_8_4_4).to_dict()
    assert data["params"]["q"] == 5
    assert data["verdict"] == OPTIMAL_CERTIFIED
    assert data["distance"]["exact"] is True
    assert data["locality"]["ok"] is True
    assert data["singleton_bound"] == 4


def test_verdict_core_agrees_with_the_report_over_criterion_box(criterion_box_codes):
    # sweep --verify reads render_verdict alone; the dual scan and BCH bound
    # that verify_optimal adds never change the verdict, and where locality
    # r holds the dual distance is at most r + 1, so no dual-distance test
    # could ever refute
    budget = 1 << 20
    in_budget = [(rec, code) for rec, code in criterion_box_codes if rec.q**rec.k <= budget]
    assert len(in_budget) == 157
    for rec, code in in_budget:
        verdict, distance, locality = render_verdict(code, budget)
        report = verify_optimal(code, budget)
        assert verdict == report.verdict, rec
        assert (distance, locality) == (report.distance, report.locality), rec
        if report.dual_distance.exact and locality.ok is True:
            assert report.dual_distance.lower == report.dual_distance.upper <= code.r + 1, rec


def test_long_thm_code_certifies_promptly():
    # x^4092 - 1 over GF(13) splits far past the supported order; the stated
    # zeros give BCH 3 = d, and the verdict needs no scan
    code = construct("thm-1.1-i", 13, n=4092, r=3)
    start = time.perf_counter()
    verdict, distance, _ = render_verdict(code)
    assert time.perf_counter() - start < 1.0
    assert (verdict, distance) == (OPTIMAL_CERTIFIED, (3, 1025, False, 0))


def test_over_budget_rows_of_the_property_box_read_the_bch_bound():
    # the 1184 rows of --qmax 32 --nmax 40 with more than 2^24 nonzero
    # messages: none is scanned, the 1120 whose BCH bound reaches d are
    # certified, and the 64 thm-1.1-ii rows with BCH bound 3 < d = 4 are
    # consistent
    budget = 1 << 24
    counts = {}
    start = time.perf_counter()
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible or rec.q**rec.k - 1 <= budget:
                continue
            code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            verdict, distance, locality = render_verdict(code, budget)
            assert (distance.exact, distance.enumerated, locality.ok) == (False, 0, True), rec
            assert distance.upper == rec.n - rec.k + 1, rec
            counts[scheme, verdict] = counts.get((scheme, verdict), 0) + 1
    assert time.perf_counter() - start < 5.0
    assert counts == {
        ("thm-1.1-i", OPTIMAL_CERTIFIED): 194,
        ("thm-1.1-ii", OPTIMAL_CERTIFIED): 38,
        ("thm-1.1-ii", OPTIMAL_CONSISTENT): 64,
        ("ex-3.2", OPTIMAL_CERTIFIED): 593,
        ("ex-3.3", OPTIMAL_CERTIFIED): 282,
        ("thm-3.4", OPTIMAL_CERTIFIED): 13,
    }
