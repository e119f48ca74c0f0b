from __future__ import annotations

import math
import time
from functools import partial

import pytest

from cyclic_lrc.constructions import (
    ALL_SCHEMES,
    CandidateParams,
    ConstructionError,
    LrcCode,
    ParameterError,
    _bezout_exponent,
    _confirmed_zeros,
    _plan,
    _project,
    construct,
    enumerate_valid_params,
    prime_power,
)
from cyclic_lrc.field import (
    _embedding,
    make_field,
    primitive_nth_root,
)
from cyclic_lrc.cyclic import CyclicCode
from cyclic_lrc.poly import Poly
from cyclic_lrc.verify import OPTIMAL_CERTIFIED, render_verdict, singleton_bound
from splitting_reference import reference_code, splitting_degree

THM_SCHEMES = ("thm-1.1-i", "thm-1.1-ii", "thm-3.4")


def _check_common_invariants(code):
    base = code.base
    assert divmod(Poly.x_pow_minus_one(base.field, base.n), base.g)[1].is_zero
    assert base.n % (code.r + 1) == 0
    assert code.d_claimed == singleton_bound(base.n, base.k, code.r)
    assert base.bch_lower_bound() >= code.d_claimed - 1
    if code.beta is None:
        # the thm schemes use no beta; alpha is a primitive (r+1)-th root
        assert code.scheme in THM_SCHEMES
        alpha, field = code.alpha.index, code.alpha.field
        assert [t for t in range(1, code.r + 2) if field.pow(alpha, t) == 1] == [code.r + 1]
    else:
        # beta is a primitive n-th root: n is the least power that is 1
        beta, field = code.beta.index, code.beta.field
        assert [t for t in range(1, base.n + 1) if field.pow(beta, t) == 1] == [base.n]


# -- distance-3 unbounded family ------------------------------------------


def test_d3_q4_n9(code_9_5_3):
    code = code_9_5_3
    assert (code.n, code.k, code.d_claimed, code.r) == (9, 5, 3, 2)
    # alpha is a nontrivial cube root of unity in GF(4)
    assert code.field.pow(code.alpha.index, 3) == 1 and code.alpha.index != 1
    assert code.base.g.coeffs == (2, 2, 0, 1, 1)  # alpha = omega = y
    assert code.base.bch_lower_bound() >= 3
    _check_common_invariants(code)


def test_d3_q7_n15():
    code = construct("thm-1.1-i", 7, n=15, r=2)
    assert (code.n, code.k) == (15, 9)
    _check_common_invariants(code)


def test_d3_rejects_shared_factor():
    with pytest.raises(ParameterError, match="gcd"):
        construct("thm-1.1-i", 4, n=10, r=2)


def test_d3_rejects_bad_locality():
    with pytest.raises(ParameterError):
        construct("thm-1.1-i", 4, n=9, r=1)
    with pytest.raises(ParameterError, match="divisible by r"):
        construct("thm-1.1-i", 4, n=9, r=3)


def test_d3_is_deterministic():
    assert construct("thm-1.1-i", 4, n=9, r=2) == construct("thm-1.1-i", 4, n=9, r=2)


# -- distance-4 unbounded family ------------------------------------------


def test_d4_q5_n8(code_8_4_4):
    code = code_8_4_4
    assert (code.n, code.k, code.d_claimed, code.r) == (8, 4, 4, 3)
    assert code.base.g.coeffs == (1, 1, 0, 2, 1)
    assert code.alpha.index == 2 and code.gamma.index == 2
    # gamma satisfies gamma^(n/(r+1)) = alpha^2 != alpha
    f, alpha = code.field, code.alpha.index
    assert f.pow(code.gamma.index, 2) == f.mul(alpha, alpha)
    _check_common_invariants(code)


def test_d4_q13_n24():
    code = construct("thm-1.1-ii", 13, n=24, r=3)
    assert (code.n, code.k) == (24, 16)
    _check_common_invariants(code)


def test_d4_rejects_insufficient_gcd():
    with pytest.raises(ParameterError, match="divisible by r"):
        construct("thm-1.1-ii", 7, n=8, r=3)


def test_d4_rejects_bad_stride_gcd():
    # gcd(n/(r+1), r+1) = 4 does not divide 2
    with pytest.raises(ParameterError, match="divide 2"):
        construct("thm-1.1-ii", 17, n=64, r=3)


def _bezout_by_extended_euclid(s, r):
    """The exponent by the extended Euclidean algorithm on (s, r + 1):
    u * (2/g) mod (r+1)/g, u the Bezout coefficient of s; None when
    g = gcd(s, r + 1) does not divide 2."""
    old_r, cur_r = s, r + 1
    old_u, cur_u = 1, 0
    while cur_r:
        quotient = old_r // cur_r
        old_r, cur_r = cur_r, old_r - quotient * cur_r
        old_u, cur_u = cur_u, old_u - quotient * cur_u
    if 2 % old_r:
        return None
    return old_u * (2 // old_r) % ((r + 1) // old_r)


def test_bezout_exponent_matches_the_extended_euclid():
    admissible = 0
    for r in range(3, 200):
        for s in range(1, 400):
            expected = _bezout_by_extended_euclid(s, r)
            if expected is None:
                with pytest.raises(ParameterError, match="does not divide 2"):
                    _bezout_exponent(s, r)
                continue
            a = _bezout_exponent(s, r)
            assert a == expected and a >= 1, (s, r)
            assert (a * s - 2) % (r + 1) == 0, (s, r)
            admissible += 1
    assert admissible == 59821


def test_d4_rejects_small_locality():
    with pytest.raises(ParameterError):
        construct("thm-1.1-ii", 5, n=8, r=2)


# -- any-distance family, n | q - 1 ---------------------------------------


def test_subgroup_case1_q13_d5(acceptance_codes):
    code = acceptance_codes["subgroup-q13-d5"]
    assert (code.n, code.k, code.d_claimed) == (12, 6, 5)
    assert sorted(code.base.root_exponents) == [0, 1, 2, 3, 6, 9]
    assert code.base.bch_lower_bound() >= 5
    _check_common_invariants(code)


def test_subgroup_case2_q13_d6(acceptance_codes):
    code = acceptance_codes["subgroup-q13-d6"]
    assert (code.n, code.k, code.d_claimed) == (12, 5, 6)
    assert sorted(code.base.root_exponents) == [0, 1, 2, 3, 4, 7, 10]
    _check_common_invariants(code)


def test_subgroup_minimal_instance():
    code = construct("ex-3.2", 7, n=6, r=2, d=2)
    assert (code.n, code.k, code.d_claimed) == (6, 4, 2)
    assert code.base.g.coeffs == (6, 0, 1)  # (x-1)(x-beta^3) = x^2 - 1
    _check_common_invariants(code)


def test_subgroup_full_distance():
    code = construct("ex-3.2", 13, n=12, r=2, d=12)
    assert code.k == 1
    _check_common_invariants(code)


def test_subgroup_rejects_wraparound_distances():
    # d = 1 (mod r+1) forces actual distance d + 1
    with pytest.raises(ParameterError, match="request d = 5"):
        construct("ex-3.2", 13, n=12, r=2, d=4)
    with pytest.raises(ParameterError, match="unreachable"):
        construct("ex-3.2", 13, n=12, r=2, d=1)


def test_subgroup_rejects_bad_length():
    with pytest.raises(ParameterError, match="does not divide q - 1"):
        construct("ex-3.2", 13, n=8, r=3, d=4)


# -- any-distance family, n | q + 1 ---------------------------------------


def test_coset_q11_d10(acceptance_codes):
    code = acceptance_codes["coset-q11-d10"]
    assert (code.n, code.k, code.d_claimed) == (12, 3, 10)
    assert code.base.bch_lower_bound() >= 10
    _check_common_invariants(code)


def test_coset_q11_d2():
    code = construct("ex-3.3", 11, n=12, r=3, d=2)
    assert (code.n, code.k) == (12, 9)
    assert sorted(code.base.root_exponents) == [0, 4, 8]
    _check_common_invariants(code)


def test_coset_generator_descends_to_base_field():
    code = construct("ex-3.3", 11, n=12, r=3, d=10)
    assert code.field.q == 11
    assert code.base.g.field is code.field
    assert all(0 <= c < code.field.q for c in code.base.g.coeffs)
    # recompute in the splitting field and confirm Frobenius fixedness
    from cyclic_lrc.field import make_field, primitive_nth_root

    f121 = make_field(11, 2)
    beta = primitive_nth_root(f121, 12).index
    lifted = Poly.from_roots(f121, [f121.pow(beta, e % 12) for e in range(-4, 5)])
    assert all(f121.pow(c, 11) == c for c in lifted.coeffs)


def test_projection_rejects_an_element_outside_the_base_field(f5, f25):
    # the runtime self-check behind every ex-3.3 generator coefficient
    beta = primitive_nth_root(f25, 8)
    _, preimage = _embedding(f5, f25)
    with pytest.raises(ConstructionError, match="^alpha is not fixed by the GF\\(5\\) Frobenius$"):
        _project(beta.index, preimage, f5, "alpha")
    square = f25.pow(beta.index, 2)
    assert _project(square, preimage, f5, "alpha") == square


def test_coset_rejects_odd_decomposition():
    with pytest.raises(ParameterError, match="even"):
        construct("ex-3.3", 11, n=12, r=3, d=6)


def test_coset_rejects_bad_length():
    with pytest.raises(ParameterError, match="does not divide q \\+ 1"):
        construct("ex-3.3", 11, n=8, r=3, d=2)


def test_coset_small_field_instance():
    code = construct("ex-3.3", 3, n=4, r=3, d=2)
    assert (code.n, code.k, code.d_claimed) == (4, 3, 2)
    _check_common_invariants(code)


# -- double-length distance-4 family --------------------------------------


def test_double_length_q5_coincides_with_d4_family(code_8_4_4):
    code = construct("thm-3.4", 5, r=3)
    assert code.base.g == code_8_4_4.base.g
    assert (code.n, code.k, code.d_claimed) == (8, 4, 4)
    _check_common_invariants(code)


def test_double_length_alpha_membership_gap():
    # (r+1) | 2(q-1) holds but (r+1) does not divide q-1
    with pytest.raises(ParameterError, match="alpha"):
        construct("thm-3.4", 7, r=3)
    # the builder tests (r+1) | q - 1 in place of alpha = beta^s in GF(q);
    # check that the two agree, with alpha computed in the splitting field
    checked = 0
    for q in range(3, 32, 2):
        try:
            p, m = prime_power(q)
        except ParameterError:
            continue
        n = 2 * (q - 1)
        beta = primitive_nth_root(make_field(p, m * splitting_degree(q, n)), n)
        for r in range(3, n):
            if n % (r + 1) == 0:
                alpha = beta.field.pow(beta.index, n // (r + 1))
                assert ((q - 1) % (r + 1) == 0) == (beta.field.pow(alpha, q) == alpha), (q, r)
                checked += 1
    assert checked == 58


def test_double_length_rejects_small_locality():
    for r in (1, 2):
        with pytest.raises(ParameterError, match="locality"):
            construct("thm-3.4", 9, r=r)


def test_double_length_rejects_even_q():
    with pytest.raises(ParameterError, match="gcd"):
        construct("thm-3.4", 4, r=3)


@pytest.mark.parametrize("q, expected_k", [(9, 10), (13, 16)])
def test_double_length_larger_instances(q, expected_k):
    code = construct("thm-3.4", q, r=3)
    assert (code.n, code.k) == (2 * (q - 1), expected_k)
    _check_common_invariants(code)


# -- dispatch and enumeration ----------------------------------------------


def test_construct_dispatch_validation():
    with pytest.raises(ParameterError, match="unknown scheme"):
        construct("thm-9.9", 5, n=8, r=3)
    with pytest.raises(ParameterError, match="needs a length"):
        construct("thm-1.1-i", 4, r=2)
    with pytest.raises(ParameterError, match="needs a distance"):
        construct("ex-3.2", 13, n=12, r=2)
    with pytest.raises(ParameterError, match="fixes d = 3"):
        construct("thm-1.1-i", 4, n=9, r=2, d=4)
    with pytest.raises(ParameterError, match="fixes n"):
        construct("thm-3.4", 5, n=10, r=3)
    code = construct("thm-3.4", 5, r=3)
    assert code.scheme == "thm-3.4"


def test_lrc_code_rejects_locality_below_one(code_8_4_4):
    # (r + 1) | n holds at r = 0; only the locality check refuses it
    for r in (0, -1):
        with pytest.raises(ConstructionError, match=f"locality r = {r} must be >= 1"):
            LrcCode(code_8_4_4.base, r, 4, "thm-1.1-ii", beta=None)


def test_lrc_code_rejects_r_plus_one_not_dividing_n(code_8_4_4):
    # d = 4 is the Singleton-type bound of [8, 4] at r = 2, so only the
    # divisibility check refuses it
    with pytest.raises(ConstructionError, match=r"\(r \+ 1\) = 3 must divide n = 8"):
        LrcCode(code_8_4_4.base, 2, 4, "thm-1.1-ii", beta=None)


def test_lrc_code_rejects_a_distance_off_the_singleton_bound(code_8_4_4):
    for d in (3, 5):
        with pytest.raises(ConstructionError, match=f"claimed distance {d} misses the Singleton-type bound 4"):
            LrcCode(code_8_4_4.base, 3, d, "thm-1.1-ii", beta=None)
    # a zero-dimensional code has no bound, so no LrcCode
    f5 = make_field(5)
    with pytest.raises(ValueError, match="dimension k = 0"):
        LrcCode(CyclicCode(f5, 4, Poly.x_pow_minus_one(f5, 4)), 3, 1, "ex-3.2", beta=None)


def test_a_wrong_count_of_zeros_misses_the_singleton_bound(monkeypatch):
    # the bound falls strictly with k, so one zero too many in a plan gives
    # a code whose claim is off it: [12, 5] at r = 2 has bound 6, not 5
    from cyclic_lrc import constructions

    real = constructions._subgroup_exponents

    def one_more(n, r, d):
        zeros, grid = real(n, r, d)
        return zeros + [5], grid

    monkeypatch.setattr(constructions, "_subgroup_exponents", one_more)
    with pytest.raises(ConstructionError, match=r"bound 6 for \[n=12, k=5\], r=2"):
        construct("ex-3.2", 13, n=12, r=2, d=5)


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(13) == (13, 1)
    with pytest.raises(ParameterError):
        prime_power(12)
    with pytest.raises(ParameterError):
        prime_power(1)
    # the size is checked first: trial division of this prime would take minutes
    with pytest.raises(ParameterError, match="exceeds the supported order"):
        prime_power(10**18 + 3)


def test_enumerate_d3_includes_spec_instances():
    records = enumerate_valid_params("thm-1.1-i", 4, 9)
    as_tuples = {(r.q, r.n, r.r) for r in records}
    assert (4, 9, 2) in as_tuples
    assert (4, 3, 2) in as_tuples


def test_enumerate_d4_includes_q5():
    records = enumerate_valid_params("thm-1.1-ii", 5, 8)
    assert any((r.q, r.n, r.r) == (5, 8, 3) for r in records)


def test_enumerate_coset_small_bounds():
    records = enumerate_valid_params("ex-3.3", 4, 4)
    assert any((r.q, r.n, r.r, r.d) == (3, 4, 3, 2) for r in records)


def test_enumerate_double_length_flags_alpha_gap():
    records = enumerate_valid_params("thm-3.4", 8, 14)
    by_params = {(r.q, r.r): r for r in records}
    assert by_params[(5, 3)].constructible
    gap = by_params[(7, 3)]
    assert not gap.constructible and gap.diagnostic == "alpha-membership-failed"


def test_enumeration_is_sorted_and_constructible():
    for scheme in ALL_SCHEMES:
        records = enumerate_valid_params(scheme, 9, 16)
        keys = [(r.q, r.n, r.r, r.d) for r in records]
        assert keys == sorted(keys)
        for rec in records:
            if not rec.constructible:
                continue
            code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            assert (code.n, code.k, code.r, code.d_claimed) == (rec.n, rec.k, rec.r, rec.d)
            _check_common_invariants(code)
            if scheme in ("thm-1.1-i", "ex-3.2", "ex-3.3"):
                # these schemes carry a run of d - 1 consecutive root exponents
                assert code.base.bch_lower_bound() >= rec.d


def test_every_listed_row_constructs_or_carries_a_diagnostic():
    # the thm rows of the --qmax 32 --nmax 40 box whose splitting field is
    # over 2^20, e.g. thm-1.1-i with q = 7, n = 27, r = 2 (GF(7^9)), are
    # built in GF(q); only the thm-3.4 alpha-membership gap is left
    diagnostics = {}
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if rec.constructible:
                code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
                assert (code.n, code.k, code.r, code.d_claimed) == (rec.n, rec.k, rec.r, rec.d)
                continue
            with pytest.raises(ParameterError):
                construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            key = (scheme, rec.diagnostic)
            diagnostics[key] = diagnostics.get(key, 0) + 1
    assert diagnostics == {("thm-3.4", "alpha-membership-failed"): 13}


def test_thm_rows_are_built_in_gf_q_and_certified():
    # every thm row of the --qmax 32 --nmax 40 box, the 25 whose splitting
    # field is over 2^20 included: g = (x - 1)[(x - gamma)](x^s - alpha)
    # with alpha = omega^((q-1)/(r+1)) of order r + 1, and gamma = alpha^a
    # (thm-1.1-ii) or omega (thm-3.4).  Rows of at most 2^20 messages are
    # certified by the exact scan; over the budget, the rows whose BCH bound
    # reaches d are certified without a scan and the others are consistent.
    # The BCH bound reads the stated zeros, so every row has one
    counts = {}
    for scheme in THM_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            code = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            field, alpha, gamma, s = code.field, code.alpha, code.gamma, rec.n // (rec.r + 1)
            assert code.beta is None
            assert alpha == primitive_nth_root(field, rec.r + 1)
            assert [t for t in range(1, rec.r + 2) if field.pow(alpha.index, t) == 1] == [rec.r + 1]
            if scheme == "thm-1.1-ii":
                assert gamma.index == field.pow(alpha.index, _bezout_exponent(s, rec.r))
            else:
                omega = primitive_nth_root(field, field.q - 1)
                assert gamma == (omega if scheme == "thm-3.4" else None)
            roots = [1] if gamma is None else [1, gamma.index]
            binomial = Poly(field, [field.neg(alpha.index)] + [0] * (s - 1) + [1])
            assert code.base.g == Poly.from_roots(field, roots) * binomial, rec
            in_budget = rec.q**rec.k <= 1 << 20
            verdict, distance, _ = render_verdict(code, 1 << 20 if in_budget else 1 << 12)
            bch = code.base.bch_lower_bound()
            reached = in_budget or (bch is not None and bch >= rec.d)
            assert verdict == (OPTIMAL_CERTIFIED if reached else "optimal-consistent"), rec
            assert distance.exact == in_budget, rec
            key = (in_budget, verdict, bch)
            counts[key] = counts.get(key, 0) + 1
    assert counts == {
        (True, OPTIMAL_CERTIFIED, 3): 39,
        (True, OPTIMAL_CERTIFIED, 4): 24,
        (False, OPTIMAL_CERTIFIED, 3): 198,
        (False, OPTIMAL_CERTIFIED, 4): 56,
        (False, "optimal-consistent", 3): 64,
    }


def test_stated_zeros_agree_with_the_splitting_field_reference():
    # on every row of --qmax 32 --nmax 40 whose splitting field is in reach,
    # the stated zeros are those found there, up to the unit relating the
    # two primitive roots, and the code and its dual have the BCH bounds of
    # the zeros found there
    rows = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible or splitting_degree(rec.q, rec.n) is None:
                continue
            base = construct(scheme, rec.q, n=rec.n, r=rec.r, d=rec.d).base
            found, n = reference_code(base).root_exponents, rec.n
            assert any(
                frozenset(u * e % n for e in found) == base.root_exponents
                for u in range(1, n) if math.gcd(u, n) == 1
            ), rec
            assert base.bch_lower_bound() == reference_code(base).bch_lower_bound(), rec
            dual = base.dual()
            assert dual.bch_lower_bound() == reference_code(dual).bch_lower_bound(), rec
            rows += 1
    assert rows == 1731


def test_a_generator_without_a_stated_factor_gets_no_zeros():
    # each g lacks one factor that its statement names, and keeps the degree
    # where it can: over the budget its verdict has no bound to certify by
    f13 = make_field(13)
    beta = primitive_nth_root(f13, 12).index
    thm = construct("thm-1.1-i", 13, n=12, r=3)
    alpha = thm.alpha.index  # beta^3: x^3 - alpha has the zeros beta^1, beta^5, beta^9
    ex = construct("ex-3.2", 13, n=12, r=2, d=5)
    assert sorted(ex.base.root_exponents) == [0, 1, 2, 3, 6, 9]

    def binomial(c):
        return Poly(f13, [f13.neg(c), 0, 0, 1])

    # alpha = -1 has order 2, not r + 1 = 4: trusted, the statement would
    # certify d = 3 for (x - 1)(x^3 + 1), but x^6 - 1 is a codeword of weight 2
    minus_one = f13.from_index(f13.neg(1))
    wrong_order = CyclicCode(f13, 12, Poly(f13, [12, 1]) * binomial(minus_one.index),
                             partial(_confirmed_zeros, _plan("thm-1.1-i", 13, 12, 3, 3), minus_one, 3))
    one, zero = f13.from_index(1), f13.from_index(0)
    assert wrong_order.contains([minus_one] + [zero] * 5 + [one] + [zero] * 5)
    cases = [
        # x - beta^2 in place of x - 1
        (CyclicCode(f13, 12, Poly(f13, [f13.neg(f13.pow(beta, 2)), 1]) * binomial(alpha), thm.base._zeros),
         3, "thm-1.1-i", None, thm.alpha),
        # no x - 1 at all
        (CyclicCode(f13, 12, binomial(alpha), thm.base._zeros), 3, "thm-1.1-i", None, thm.alpha),
        (wrong_order, 3, "thm-1.1-i", None, minus_one),
        # beta^4 in place of beta^2, and beta^1 left out; both keep the grid
        # factor x^4 - 1, with the zeros beta^0, beta^3, beta^6, beta^9
        (CyclicCode(f13, 12, Poly.from_roots(f13, [f13.pow(beta, e) for e in (0, 1, 4, 3, 6, 9)]),
                    ex.base._zeros), 2, "ex-3.2", ex.beta, None),
        (CyclicCode(f13, 12, Poly.from_roots(f13, [f13.pow(beta, e) for e in (0, 2, 3, 6, 9)]),
                    ex.base._zeros), 2, "ex-3.2", ex.beta, None),
    ]
    for base, r, scheme, beta_stored, alpha_stored in cases:
        code = LrcCode(base, r, singleton_bound(12, base.k, r), scheme, beta_stored, alpha_stored)
        assert code.base.root_exponents is None and code.base.bch_lower_bound() is None, code
        verdict, distance, locality = render_verdict(code, budget=1)
        assert (distance.lower, distance.exact, locality.ok) == (1, False, True), code
        assert verdict == "optimal-consistent", code
    for code in (thm, ex):
        assert render_verdict(code, budget=1)[0] == OPTIMAL_CERTIFIED
    # beta^9 of the grid coset {0, 3, 6, 9} left out and beta^4 put in its
    # place: the degree and the zeros off the grid stay, but x^4 - 1 no
    # longer divides g, so the statement is not confirmed
    off_grid = CyclicCode(f13, 12, Poly.from_roots(f13, [f13.pow(beta, e) for e in (0, 1, 2, 3, 4, 6)]),
                          ex.base._zeros)
    assert off_grid.k == ex.k
    assert off_grid.root_exponents is None and off_grid.bch_lower_bound() is None


def _head_and_tail(scheme, n, r, d):
    """The zero set Z of an ex scheme as it was written before the grid
    factor: the head run plus a stride-(r+1) tail, both listed root by root."""
    a, b = divmod(d, r + 1)
    s = n // (r + 1)
    if scheme == "ex-3.2":
        head = list(range(d - 1))
        last = s if b >= 2 else s + 1
        return head + [((r + 1) * j + b - 2) % n for j in range(a + 1, last)]
    half = (d - 2) // 2
    lo = (a + 2) // 2
    return [i % n for i in range(-half, half + 1)] + [(r + 1) * j % n for j in range(lo, s - lo + 1)]


def test_ex_plans_hold_the_old_head_and_tail():
    # for every ex row of --qmax 32 --nmax 40 (listed, so gap rows too), the
    # zeros off the grid and the grid factor's coset are disjoint and make
    # up the old Z, which had no repeated exponent
    rows = 0
    for scheme in ("ex-3.2", "ex-3.3"):
        for rec in enumerate_valid_params(scheme, 32, 40):
            plan = _plan(scheme, rec.q, rec.n, rec.r, rec.d)
            s = rec.n // (rec.r + 1)
            coset = set(range(plan.grid // s, rec.n, rec.r + 1))
            old = _head_and_tail(scheme, rec.n, rec.r, rec.d)
            assert len(set(old)) == len(old), rec
            assert plan.order == rec.n and plan.grid % s == 0, rec
            assert coset.isdisjoint(plan.zeros) and len(set(plan.zeros)) == len(plan.zeros), rec
            assert coset.union(plan.zeros) == set(old), rec
            assert plan.k == rec.n - len(old), rec
            rows += 1
    assert rows == 1375


def test_long_subgroup_code_is_prompt():
    # ex-3.2 over GF(4096) at the longest supported length: g = x^1365 - 1
    # is the grid factor alone, with no linear factor to multiply in
    start = time.perf_counter()
    code = construct("ex-3.2", 4096, n=4095, r=2, d=2)
    assert code.base.g == Poly(code.field, [code.field.neg(1)] + [0] * 1364 + [1])
    assert render_verdict(code)[0] == OPTIMAL_CERTIFIED
    assert time.perf_counter() - start < 1.0


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(ParameterError):
        enumerate_valid_params("thm-1.1-i", 1, 9)


def test_candidate_record_shape():
    rec = CandidateParams("thm-1.1-i", 4, 9, 2, 3, 5)
    assert rec.constructible and rec.diagnostic is None
