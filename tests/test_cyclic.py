from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclic_lrc
from cyclic_lrc import cyclic, kernels
from cyclic_lrc.constructions import ALL_SCHEMES, construct, enumerate_valid_params
from cyclic_lrc.cyclic import CyclicCode, min_distance_exhaustive
from cyclic_lrc.verify import render_verdict, verify_optimal
from cyclic_lrc.field import FieldElement, make_field, primitive_nth_root
from cyclic_lrc.poly import Poly
from splitting_reference import reference_code


@pytest.fixture(scope="module")
def code_8_4():
    f5 = make_field(5)
    return CyclicCode(f5, 8, Poly(f5, [1, 2, 0, 1, 1]))


def test_build_derives_dimension_and_parity(code_8_4):
    assert code_8_4.k == 4
    assert code_8_4.g * code_8_4.h == Poly.x_pow_minus_one(code_8_4.field, 8)
    assert code_8_4.dual_g == code_8_4.h.reciprocal().monic()


def test_parity_check_code(f5):
    code = CyclicCode(f5, 6, Poly(f5, [4, 1]))
    assert code.k == 5


def test_divisor_decided_by_division(f5):
    # x^2 + 1 factors into two fourth roots of unity, so it divides x^8 - 1
    code = CyclicCode(f5, 8, Poly(f5, [1, 0, 1]))
    assert code.k == 6
    # x^2 + x + 1 has roots of order 3, which do not divide 8
    with pytest.raises(ValueError):
        CyclicCode(f5, 8, Poly(f5, [1, 1, 1]))


def test_build_rejections(f5, f4):
    with pytest.raises(ValueError):
        CyclicCode(f4, 10, Poly(f4, [1, 1]))  # gcd(10, 4) != 1
    with pytest.raises(ValueError):
        CyclicCode(f5, 8, Poly(f5, [1, 2]))  # not monic
    with pytest.raises(ValueError):
        CyclicCode(f5, 8, Poly(f5, []))


def test_one_checked_constructor(f5, f13, code_8_4):
    # the derived values cannot be supplied, so they cannot disagree with g
    with pytest.raises(TypeError):
        CyclicCode(f5, 8, code_8_4.g, code_8_4.k + 1, code_8_4.h, code_8_4.dual_g)
    assert CyclicCode(f5, 8, Poly(f5, [1, 2, 0, 1, 1, 0])) == code_8_4
    for g in (
        Poly(f5, [1, 1, 1]),  # does not divide x^8 - 1
        Poly(f5, [2, 4, 0, 2, 2]),  # 2 * g of code_8_4: not monic
        Poly(f13, [12, 1]),  # over another field
        Poly.x_pow_minus_one(f5, 16),  # degree above n
    ):
        with pytest.raises(ValueError):
            CyclicCode(f5, 8, g)


def test_code_is_the_value_of_field_length_and_generator(code_8_4):
    f5 = code_8_4.field
    assert code_8_4.__reduce__() == (CyclicCode, (f5, 8, code_8_4.g, None))
    assert hash(code_8_4) == hash(CyclicCode(f5, 8, code_8_4.g))
    assert code_8_4.dual() == CyclicCode(f5, 8, code_8_4.dual_g)


_RETENTION_PROBE = """
import gc
from cyclic_lrc import ALL_SCHEMES, construct, enumerate_valid_params, render_verdict
from cyclic_lrc.cyclic import CyclicCode

rows = 0
for scheme in ALL_SCHEMES:
    for rec in enumerate_valid_params(scheme, 13, 24):
        if rec.constructible and rec.q**rec.k <= 1 << 20:
            code = construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d)
            render_verdict(code, 1 << 20)
            code.base.bch_lower_bound()
            code.repair_plan
            rows += 1
del code
gc.collect()
print(rows, sum(type(o) is CyclicCode for o in gc.get_objects()))
"""


def test_checked_codes_are_not_retained():
    # what a code derives is cached on the code, never in a module-level
    # cache keyed by codes, so a process that checks many codes keeps none;
    # a fresh process, because earlier tests hold codes of their own
    package_root = Path(cyclic_lrc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RETENTION_PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert proc.stdout.split() == ["157", "0"]


def test_systematic_encode_zero(code_8_4):
    zero_word = code_8_4.encode_systematic([code_8_4.field.from_index(0)] * 4)
    assert all(s.index == 0 for s in zero_word)


def test_systematic_encode_places_message_last(code_8_4):
    f5 = code_8_4.field
    message = [f5.from_index(i) for i in (1, 0, 0, 0)]
    word = code_8_4.encode_systematic(message)
    # x^4 * 1 - (x^4 mod g) equals g itself here
    assert tuple(s.index for s in word) == (1, 2, 0, 1, 1, 0, 0, 0)
    assert list(word[4:]) == message
    assert code_8_4.contains(word)


def test_systematic_encode_round_trip(code_8_4, rng):
    f5 = code_8_4.field
    for _ in range(50):
        message = [f5.from_index(rng.randrange(5)) for _ in range(4)]
        word = code_8_4.encode_systematic(message)
        assert code_8_4.contains(word)
        assert list(word[4:]) == message
    with pytest.raises(ValueError):
        code_8_4.encode_systematic([f5.from_index(0)] * 3)


def test_systematic_encode_rejects_wrong_field(code_8_4, f25):
    f5 = code_8_4.field
    message = [f5.from_index(1), f25.from_index(1), f5.from_index(0), f5.from_index(0)]
    with pytest.raises(ValueError, match="not in GF\\(5\\)"):
        code_8_4.encode_systematic(message)


def test_encode_refuses_a_parity_matrix_over_the_bound(f5, f25, monkeypatch):
    wide = construct("thm-1.1-i", 4096, n=4095, r=2).base
    with pytest.raises(ValueError, match="^cannot encode: .* has 536805216 entries"):
        wide.encode_systematic([wide.field.from_index(0)] * wide.k)
    # the bound is k(n - k)m^2 <= MAX_LENGTH^2 / 4, which every code over a
    # prime field meets; at MAX_LENGTH = 8 an [8, 4] code over GF(5) sits on
    # it and an [8, 4] code over GF(25) is 4 times over
    monkeypatch.setattr(cyclic, "MAX_LENGTH", 8)
    on = CyclicCode(f5, 8, Poly(f5, [1, 2, 0, 1, 1]))
    assert on.contains(on.encode_systematic([f5.from_index(1)] * 4))
    beta = primitive_nth_root(f25, 8).index
    over = CyclicCode(f25, 8, Poly.from_roots(f25, [f25.pow(beta, e) for e in range(4)]))
    with pytest.raises(ValueError, match="has 64 entries, over the supported 16$"):
        over.encode_systematic([f25.from_index(0)] * 4)


def test_encode_and_from_index_skip_the_digit_check(code_8_4, monkeypatch):
    # their digits are valid by construction, so they build elements through
    # field.py's private factory and never call the checked constructor
    def refuse(*args):
        raise AssertionError("checked constructor called")

    monkeypatch.setattr(FieldElement, "__init__", refuse)
    message = [code_8_4.field.from_index(i) for i in (1, 2, 3, 4)]
    assert len(code_8_4.encode_systematic(message)) == 8


def test_contains(code_8_4, rng):
    f5 = code_8_4.field
    assert code_8_4.contains([f5.from_index(code_8_4.g.coefficient(i)) for i in range(8)])
    unit = [f5.from_index(1)] + [f5.from_index(0)] * 7
    assert not code_8_4.contains(unit)
    for _ in range(30):
        message = [f5.from_index(rng.randrange(5)) for _ in range(4)]
        word = list(code_8_4.encode_systematic(message))
        shift = rng.randrange(8)
        shifted = word[-shift:] + word[:-shift] if shift else word
        assert code_8_4.contains(shifted)
    with pytest.raises(ValueError):
        code_8_4.contains(unit[:5])


def test_encode_and_contains_at_the_dimension_extremes(f5):
    zero_code = CyclicCode(f5, 4, Poly.x_pow_minus_one(f5, 4))  # k = 0
    full = CyclicCode(f5, 4, Poly(f5, [1]))  # k = n
    zero, one = f5.from_index(0), f5.from_index(1)
    assert zero_code.k == 0 and full.k == 4
    assert zero_code.encode_systematic([]) == (zero,) * 4
    assert zero_code.contains([zero] * 4)
    assert not zero_code.contains([zero, zero, one, zero])
    word = (one, f5.from_index(3), zero, f5.from_index(4))
    assert full.encode_systematic(word) == word
    assert full.contains(word)


def _equal_up_to_a_unit(a, b, n):
    return any(frozenset(u * e % n for e in a) == b for u in range(1, n) if math.gcd(u, n) == 1)


def test_root_exponents_and_bch(code_8_4):
    # a hand-built g states no zeros, so it has no BCH bound; found in the
    # splitting field GF(25), its zeros give 4
    assert code_8_4.root_exponents is None and code_8_4.bch_lower_bound() is None
    reference = reference_code(code_8_4)
    assert sorted(reference.root_exponents) == [0, 1, 2, 5]
    assert reference.bch_lower_bound() == 4


def test_bch_on_distance3_code(code_9_5_3):
    # thm-1.1-i states {0} + {e = 1 mod 3} for a beta with beta^3 = alpha;
    # the canonical beta of GF(64) is another primitive 9th root
    base = code_9_5_3.base
    assert sorted(base.root_exponents) == [0, 1, 4, 7]
    assert sorted(reference_code(base).root_exponents) == [0, 2, 5, 8]
    assert _equal_up_to_a_unit(reference_code(base).root_exponents, base.root_exponents, 9)
    assert base.bch_lower_bound() == reference_code(base).bch_lower_bound() == 3


def test_construction_states_the_root_with_the_best_run():
    # Z = {0, 3, 11} for the canonical beta holds no two consecutive
    # exponents, so its own bound is 2; for beta^3, whose exponents are
    # 11 * Z = {0, 1, 9}, it holds a run of two, the best over all roots,
    # and the construction states the latter
    base = construct("thm-1.1-i", 9, n=16, r=7).base
    reference = reference_code(base)
    assert sorted(reference.root_exponents) == [0, 3, 11]
    assert reference.bch_lower_bound() == 2
    assert _reference_bch(reference.root_exponents, 16) == 3
    assert sorted(base.root_exponents) == [0, 1, 9]
    assert base.bch_lower_bound() == 3


def test_bch_bound_needs_no_splitting_field():
    # x^27 - 1 over GF(7) splits in GF(7^9), past the supported order, where
    # the reference finds nothing; the stated zeros bound the scan by 3
    base = construct("thm-1.1-i", 7, n=27, r=2).base
    assert reference_code(base).root_exponents is None
    assert sorted(base.root_exponents) == [0, *range(1, 27, 3)]
    scan = min_distance_exhaustive(base, budget=1000)
    assert (scan.lower, scan.exact, scan.upper >= 3) == (3, False, True)


def test_long_extension_field_codes_build_and_bound_promptly():
    # the divisor check subtracts only g's nonzero terms, and the BCH bound
    # reads the stated zeros, confirmed in GF(q) by evaluating g at those
    # off the grid and by the grid factor's residues, so neither grows as
    # n * deg g or forms a field beyond GF(q)
    start = time.perf_counter()
    code = construct("thm-1.1-i", 4096, n=4095, r=2)
    built = time.perf_counter() - start
    assert (code.n, code.k) == (4095, 2729)
    start = time.perf_counter()
    assert render_verdict(code)[0] == "optimal-certified"
    certified = time.perf_counter() - start
    base = construct("thm-1.1-i", 1024, n=1023, r=2).base
    start = time.perf_counter()
    assert base.bch_lower_bound() == 3
    bounded = time.perf_counter() - start
    assert built < 2.0 and certified < 1.0 and bounded < 1.0


def test_no_field_beyond_gf_q_squared_is_formed(monkeypatch):
    # building, sweeping and verifying the criterion box, where the splitting
    # fields of x^n - 1 reach GF(7^3), and verifying the long thm codes over
    # GF(13) ask make_field for GF(q) or GF(q^2) alone
    requested = []

    def recording(p, m):
        requested.append(p**m)
        return real(p, m)

    real = cyclic_lrc.field._canonical_field
    monkeypatch.setattr(cyclic_lrc.field, "_canonical_field", recording)
    rows = [
        (rec.scheme, rec.q, rec.n, rec.r, rec.d)
        for scheme in ALL_SCHEMES
        for rec in enumerate_valid_params(scheme, 13, 24)
        if rec.constructible
    ]
    long_codes = [("thm-1.1-i", 13, n, 3, 3) for n in (1204, 4092)] + [("thm-1.1-ii", 13, 172, 3, 4)]
    for scheme, q, n, r, d in rows + long_codes:
        requested.clear()
        code = construct(scheme, q, n=n, r=r, d=d)
        render_verdict(code, 1 << 20)
        verify_optimal(code, budget=1)  # both BCH bounds, and no scan
        assert requested and max(requested) <= q * q, (scheme, q, n, r, d)
    assert len(rows) == 260


def _reference_bch(zeros, n):
    """1 + the longest cyclic run of u * zeros over the units u, walked
    exponent by exponent."""
    best = 0
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            image = {u * e % n for e in zeros}
            for start in range(n):
                length = 0
                while length < n and (start + length) % n in image:
                    length += 1
                best = max(best, length)
    return best + 1 if best < n else n + 1


def test_bch_of_a_large_zero_set_reads_the_gaps_of_its_complement(criterion_box_codes):
    # a dual's zeros are the complement of its code's, so one of the two
    # sets holds at least n/2 exponents; the bound reads the runs of a set
    # above n/2 as it reads those of a small one
    large = 0
    for rec, code in criterion_box_codes:
        for c in (code.base, code.base.dual()):
            zeros = c.root_exponents
            large += 2 * len(zeros) > c.n
            assert c.bch_lower_bound() == _reference_bch(zeros, c.n), rec
    assert large == 230


def test_bch_equals_the_reference_over_the_qmax32_box():
    sets = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            base = construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d).base
            for c in (base, base.dual()):
                assert c.bch_lower_bound() == _reference_bch(c.root_exponents, c.n), rec
                sets += 1
    assert sets == 3512


def test_dual_bch_of_a_long_code_is_prompt():
    # the dual of thm-1.1-i over GF(13) at n = 4092 has 3068 zeros; the
    # bound reads each of them once, in one pass over its runs
    dual = construct("thm-1.1-i", 13, n=4092, r=3).base.dual()
    assert len(dual.root_exponents) == 3068
    start = time.perf_counter()
    assert dual.bch_lower_bound() == 4
    assert time.perf_counter() - start < 1.0


def _walk_bch(zeros, n):
    """1 + the longest progression of zeros whose step v is a unit mod n,
    the BCH bound of the best primitive root, as :func:`_reference_bch`
    gives it but without building u * zeros: a reference fast enough for
    n near 4095, where :func:`_reference_bch` takes seconds per set."""
    if len(zeros) == n:
        return n + 1
    # v and -v walk the same progressions.  A walk starts at a zero whose
    # predecessor is not one, and only if its term e + best*v, which a
    # longer progression than the best holds, is a zero; it ends, since
    # Z is not every exponent
    best = 0
    for v in range(1, n // 2 + 1):
        if math.gcd(v, n) != 1:
            continue
        for e in zeros:
            if (e - v) % n not in zeros and (e + best * v) % n in zeros:
                length = 1
                while (e + length * v) % n in zeros:
                    length += 1
                best = max(best, length)
    return 1 + best


@pytest.mark.parametrize(
    "scheme, q, params, bounds",
    [
        ("thm-1.1-i", 13, dict(n=4092, r=3), (3, 4)),
        ("thm-1.1-ii", 13, dict(n=4092, r=3), (3, 4)),
        ("thm-1.1-i", 4096, dict(n=4095, r=2), (3, 3)),
        ("ex-3.2", 1024, dict(n=1023, r=2, d=101), (101, 3)),
        ("ex-3.3", 64, dict(n=65, r=4, d=12), (12, 5)),
        ("thm-3.4", 61, dict(r=3), (4, 4)),
    ],
    ids=["thm-1.1-i-q13", "thm-1.1-ii-q13", "thm-1.1-i-q4096", "ex-3.2-q1024", "ex-3.3-q64", "thm-3.4-q61"],
)
def test_long_code_bch_reads_the_best_run_at_once(scheme, q, params, bounds):
    # on long codes and their duals the run read for the stated root equals
    # the best over every root; the run is read in about a millisecond,
    # where the walk over units takes a tenth of a second at n >= 4092
    base = construct(scheme, q, **params).base
    for c, bound in zip((base, base.dual()), bounds):
        zeros = c.root_exponents
        start = time.perf_counter()
        assert c.bch_lower_bound() == bound
        assert time.perf_counter() - start < 0.05, (scheme, q, params)
        assert _walk_bch(zeros, c.n) == bound


def test_bch_run_of_length_d_minus_1(acceptance_codes):
    base = acceptance_codes["subgroup-q13-d5"].base
    assert sorted(base.root_exponents) == [0, 1, 2, 3, 6, 9]
    assert base.bch_lower_bound() == 5


def test_bch_degenerate_full_root_set(f5):
    zero_code = reference_code(CyclicCode(f5, 4, Poly.x_pow_minus_one(f5, 4)))
    assert zero_code.k == 0
    assert zero_code.bch_lower_bound() == 5  # n + 1 convention


def test_bch_empty_root_set(f5):
    full = reference_code(CyclicCode(f5, 4, Poly(f5, [1])))
    assert full.bch_lower_bound() == 1


def _brute_force_distance(code):
    """Independent oracle: enumerate all nonzero messages, one product and
    sum per generator entry, on indices."""
    field, k, n = code.field, code.k, code.n
    best = n + 1
    for t in range(1, field.q**k):
        digits = []
        tt = t
        for _ in range(k):
            tt, d = divmod(tt, field.q)
            digits.append(d)
        word = [0] * n
        for j, d in enumerate(digits):
            if d:
                for c, g in enumerate(code.generator_matrix[j]):
                    if g:
                        word[c] = field.add(word[c], field.mul(d, g))
        best = min(best, sum(1 for w in word if w))
    return best


def test_exhaustive_distance_matches_brute_force(code_8_4):
    assert _brute_force_distance(code_8_4) == 4
    assert min_distance_exhaustive(code_8_4) == (4, 4, True, 5**4 - 1)


def test_exhaustive_distance_examples(code_9_5_3, f5):
    assert min_distance_exhaustive(code_9_5_3.base) == (3, 3, True, 4**5 - 1)
    full = CyclicCode(f5, 8, Poly(f5, [1]))
    assert min_distance_exhaustive(full) == (1, 1, True, 5**8 - 1)


def test_distance_budget_fallback(code_8_4, monkeypatch):
    # over the budget nothing is enumerated and no generator matrix is
    # built: the bracket is the BCH bound and the Singleton bound n - k + 1
    def no_scan(*args):
        raise AssertionError("the scan kernel ran over the budget")

    monkeypatch.setattr(cyclic.kernels, "min_nonzero_weight", no_scan)
    code = reference_code(code_8_4)
    scan = min_distance_exhaustive(code, budget=100)
    assert scan == (4, 5, False, 0)
    assert scan.exact is False and scan.enumerated == 0
    assert "generator_matrix" not in code.__dict__
    # q**k - 1 = 624 messages: the budget counts them, so 624 is in it
    assert min_distance_exhaustive(code, budget=623).enumerated == 0
    monkeypatch.undo()
    assert min_distance_exhaustive(code, budget=624) == (4, 4, True, 624)


def test_distance_of_zero_code(f5):
    zero_code = CyclicCode(f5, 4, Poly.x_pow_minus_one(f5, 4))
    assert min_distance_exhaustive(zero_code) == (5, 5, True, 0)


def _divisor_codes(field, n):
    """Every cyclic code of length n over the field with 0 < k < n, each
    from a monic divisor of x^n - 1 found by trial division."""
    xn = Poly.x_pow_minus_one(field, n)
    for degree in range(1, n):
        for low in itertools.product(range(field.q), repeat=degree):
            g = Poly(field, [*low, 1])
            if divmod(xn, g)[1].is_zero:
                yield CyclicCode(field, n, g)


def _zero_run(code):
    weight = sum(1 for c in code.g.coeffs if c)
    return math.ceil((code.n - weight) / weight)


def _full_scan(code):
    return kernels.min_nonzero_weight(code.generator_matrix, code.field, code.field.q**code.k - 1)


def test_prefix_scan_is_exact_on_every_small_cyclic_code():
    # a word of weight d <= wt(g) has a cyclic zero run of at least
    # ceil((n - wt(g)) / wt(g)) symbols, and its shift that ends in the run
    # is m * g with deg m < k - L: the prefix holds a minimum-weight word
    codes = [
        code
        for (p, m), lengths in [((2, 1), (3, 5, 7, 9, 11, 13)), ((3, 1), (4, 5, 7, 8)), ((2, 2), (3, 5, 7))]
        for n in lengths
        for code in _divisor_codes(make_field(p, m), n)
    ]
    assert len(codes) == 78
    assert all(_zero_run(code) < code.k for code in codes)
    assert sum(_zero_run(code) == code.k - 1 for code in codes if code.k > 1) == 16
    for code in codes:
        d, enumerated = _full_scan(code), code.field.q**code.k - 1
        assert min_distance_exhaustive(code) == (d, d, True, enumerated), (code.field, code.n, code.g)


def test_prefix_scan_is_exact_over_the_qmax32_box():
    checked = 0
    for scheme in ALL_SCHEMES:
        for rec in enumerate_valid_params(scheme, 32, 40):
            if not rec.constructible:
                continue
            base = construct(rec.scheme, rec.q, n=rec.n, r=rec.r, d=rec.d).base
            for code in (base, base.dual()):
                if 0 < code.k and code.field.q**code.k - 1 <= 1 << 20:
                    d, enumerated = _full_scan(code), code.field.q**code.k - 1
                    assert min_distance_exhaustive(code, 1 << 20) == (d, d, True, enumerated), rec
                    checked += 1
    assert checked == 1120


def test_prefix_scan_count(f5, monkeypatch):
    # (x^8 - 1)/(x^2 - 1) has weight 4, so L = ceil(4 / 4) = k - 1 and
    # the kernel gets the q - 1 messages below x; enumerated still counts
    # the q^k - 1 codewords the result covers
    counts = []

    def recording(matrix, field, count):
        counts.append(count)
        return real(matrix, field, count)

    real = kernels.min_nonzero_weight
    monkeypatch.setattr(cyclic.kernels, "min_nonzero_weight", recording)
    code = CyclicCode(f5, 8, Poly(f5, [1, 0, 1, 0, 1, 0, 1]))
    assert (code.k, _zero_run(code)) == (2, 1)
    assert min_distance_exhaustive(code) == (4, 4, True, 24)
    # the [8, 4, 4] code: wt(g) = 4, L = 1, 124 nonzero messages below x^3
    assert min_distance_exhaustive(CyclicCode(f5, 8, Poly(f5, [1, 2, 0, 1, 1]))) == (4, 4, True, 624)
    assert counts == [4, 124]


def test_dual_of_parity_check_is_repetition(f5):
    code = CyclicCode(f5, 6, Poly(f5, [4, 1]))
    dual = code.dual()
    assert dual.k == 1
    ones = [f5.from_index(1)] * 6
    assert dual.contains(ones)


def test_dual_orthogonality(code_8_4, code_9_5_3):
    for code in (code_8_4, code_9_5_3.base):
        dual = code.dual()
        assert code.k + dual.k == code.n
        for row in code.generator_matrix:
            for dual_row in dual.generator_matrix:
                acc = 0
                for a, b in zip(row, dual_row):
                    acc = code.field.add(acc, code.field.mul(a, b))
                assert acc == 0


def test_dual_contains_grid_witness(code_8_4):
    # (x^8 - 1)/(x^2 - alpha) reversed is a weight-4 dual word on one coset
    f5 = code_8_4.field
    divisor = Poly(f5, [2, 0, 1])  # x^2 - 3
    assert divmod(code_8_4.g, divisor)[1].is_zero
    u, _ = divmod(Poly.x_pow_minus_one(f5, 8), divisor)
    padded = [f5.from_index(u.coefficient(i)) for i in range(8)]
    reversed_word = tuple(padded[7 - j] for j in range(8))
    assert code_8_4.dual().contains(reversed_word)
    assert sum(1 for w in reversed_word if w.index) == 4


def test_dual_of_full_space_is_zero_code(f5):
    full = CyclicCode(f5, 8, Poly(f5, [1]))
    assert full.dual().k == 0


def test_dual_equals_the_code_built_from_dual_g(criterion_box_codes):
    # dual() is the code that dual_g generates; its derived k, h and
    # dual_g, its equality and its hash agree with that code's, and the
    # dual of the dual is the code
    assert len(criterion_box_codes) == 260
    for rec, code in criterion_box_codes:
        base = code.base
        dual = base.dual()
        built = CyclicCode(base.field, base.n, base.dual_g)
        assert (dual.g, dual.k, dual.h, dual.dual_g) == (built.g, built.k, built.h, built.dual_g), rec
        assert dual == built and hash(dual) == hash(built)
        assert dual.dual() == base, rec
