from __future__ import annotations

import contextlib
import copy
import itertools
import math
import pickle
import signal
import time

import pytest

from cyclic_lrc.field import (
    MAX_FIELD_ORDER,
    FieldElement,
    FiniteField,
    _embedding,
    _is_irreducible,
    make_field,
    prime_factors,
    primitive_nth_root,
)
from cyclic_lrc.poly import Poly
from splitting_reference import splitting_degree


def _embed(a, ext):
    fwd, _ = _embedding(a.field, ext)
    return ext.from_index(fwd[a.index])


def _project(a, sub):
    """The preimage in sub, or None outside the embedded copy."""
    _, preimage = _embedding(sub, a.field)
    try:
        return sub.from_index(preimage[a.index])
    except LookupError:
        return None


def _irreducible_low_degree_oracle(p, m):
    """Brute-force scan of monic polynomials of degree m = 2 or 3 over GF(p),
    lex order from the constant term up; independent of the library's
    search.  At these degrees a polynomial without a root is irreducible."""
    assert m in (2, 3)
    out = []
    for tail in itertools.product(range(p), repeat=m):
        coeffs = (*tail, 1)
        if all(sum(c * x**i for i, c in enumerate(coeffs)) % p != 0 for x in range(p)):
            out.append(coeffs)
    return out


def test_canonical_modulus_gf4_is_the_unique_irreducible_quadratic(f4):
    assert _irreducible_low_degree_oracle(2, 2) == [(1, 1, 1)]
    assert f4.modulus == (1, 1, 1)


def test_canonical_modulus_gf25_matches_exhaustive_scan(f25):
    assert f25.modulus == _irreducible_low_degree_oracle(5, 2)[0]
    assert f25.modulus == (1, 1, 1)


@pytest.mark.parametrize("p, m", [(3, 2), (7, 2), (13, 2), (2, 3), (3, 3), (5, 3)])
def test_canonical_low_degree_modulus_matches_exhaustive_scan(p, m):
    assert make_field(p, m).modulus == _irreducible_low_degree_oracle(p, m)[0]


def test_prime_field_has_no_modulus(f5):
    assert f5.modulus is None
    assert f5.q == 5


def test_make_field_is_deterministic():
    assert make_field(5, 2) == make_field(5, 2)
    assert make_field(5, 2) is make_field(5, 2)
    assert make_field(5) is make_field(5, 1)
    assert make_field(2, 6).modulus == make_field(2, 6).modulus


def test_field_copies_resolve_to_the_canonical_instance():
    # equality is identity, so a copied or unpickled field must be the same
    # object for its elements to keep comparing equal
    f25 = make_field(5, 2)
    assert copy.deepcopy(f25) is f25
    assert pickle.loads(pickle.dumps(f25)) is f25
    assert copy.deepcopy(f25.from_index(7)) == f25.from_index(7)
    assert make_field(5, 2) != make_field(5)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 over the order limit


def test_higher_degree_modulus_is_irreducible():
    f64 = make_field(2, 6)
    # no element of any proper subfield is a root
    coeffs = f64.modulus
    for a in range(2):
        value = sum(c * pow(a, i, 2) for i, c in enumerate(coeffs)) % 2
        assert value != 0


def _divides(p, b, a):
    """Whether the monic b divides a over GF(p), by long division on
    residue lists."""
    rem, top = list(a), len(b) - 1
    for shift in range(len(rem) - 1 - top, -1, -1):
        c = rem[shift + top]
        for i, f in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * f) % p
    return not any(rem[:top])


def _has_a_factor(p, coeffs):
    """Trial division of a monic polynomial over GF(p) by every monic
    polynomial of degree 1 to half its degree."""
    m = len(coeffs) - 1
    return any(
        _divides(p, (*tail, 1), coeffs)
        for k in range(1, m // 2 + 1)
        for tail in itertools.product(range(p), repeat=k)
    )


def _irreducible_count(p, m):
    """Gauss's count of the monic irreducibles of degree m over GF(p):
    (1/m) * sum over d | m of mu(d) p^(m/d)."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0 and all(d % (f * f) for f in prime_factors(d)):
            total += (-1) ** len(prime_factors(d)) * p ** (m // d)
    return total // m


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 3)])
def test_rabin_test_matches_trial_division(p, max_degree):
    # every monic candidate with a nonzero constant term, as the modulus
    # search scans them; a zero constant term is a root at 0
    for m in range(2, max_degree + 1):
        verdicts = []
        for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
            modulus = (*tail, 1)
            verdict = _is_irreducible(FiniteField(p, m, modulus))
            assert verdict is not _has_a_factor(p, modulus), (p, modulus)
            verdicts.append(verdict)
        assert sum(verdicts) == _irreducible_count(p, m), (p, m)


def test_rabin_test_rejects_a_product_of_factors_of_dividing_degrees():
    # 1 + x + x^4 + x^6 = (x + 1)(x^2 + x + 1)(x^3 + x + 1) over GF(2): every
    # factor's degree divides 6, so y^64 = y, while y^8 != y and y^4 != y;
    # only the coprimality condition rejects it
    f2, modulus = make_field(2), (1, 1, 0, 0, 1, 0, 1)
    factors = [Poly(f2, (1, 1)), Poly(f2, (1, 1, 1)), Poly(f2, (1, 1, 0, 1))]
    assert math.prod(factors, start=Poly(f2, [1])) == Poly(f2, modulus)
    field, y = FiniteField(2, 6, modulus), 2
    assert field.pow(y, 64) == y
    assert field.pow(y, 8) != y and field.pow(y, 4) != y
    assert not _is_irreducible(field)


def test_extension_multiplication_follows_modulus(f4):
    y = 2  # the index of the class of y
    assert f4.mul(y, y) == 3  # y^2 = y + 1


def test_inverse_and_pow_examples(f5, f13):
    assert f5.inv(1) == 1
    assert f13.pow(2, 6) == 12
    assert f13.pow(7, -1) == f13.inv(7)
    assert f13.mul(f13.pow(7, -3), f13.pow(7, 3)) == 1


def test_zero_inversion_rejected(f5):
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f5.pow(0, -1)


def test_element_constructor_rejects_digits_outside_the_field(f5, f25):
    for field, rep in [(f5, (7,)), (f5, (-1,)), (f5, (1, 0)), (f5, ()), (f5, (1.0,)),
                       (f25, (1,)), (f25, (1, 5)), (f25, (0, 0, 0))]:
        with pytest.raises(ValueError, match="digits"):
            FieldElement(field, rep)
    assert FieldElement(f25, [3, 1]) == f25.from_index(8)
    assert FieldElement(make_field(5), (2,)) == make_field(5).from_index(2)


def test_mixed_field_arithmetic_rejected(f5, f13):
    with pytest.raises(ValueError):
        f5.from_index(1) + f13.from_index(1)


def test_element_round_trip_and_digits(f25):
    for i in range(25):
        assert f25.from_index(i).index == i
        assert f25.index(f25.digits(i)) == i
    assert f25.index([3, 1]) == 8 and f25.digits(8) == (3, 1)
    with pytest.raises(ValueError):
        f25.from_index(25)


# splitting_degree belongs to the splitting-field reference of the tests,
# and decides the rows on which that reference is compared with the
# zeros the constructions state


@pytest.mark.parametrize(
    "q, n, expected",
    [
        (13, 12, 1), (4, 9, 3), (5, 1, 1), (5, 8, 2), (11, 12, 2), (7, 15, 4),
        (2, 2**20 - 1, 20),  # GF(2^20) is the largest field that fits
        (2, 2**21 - 1, None),  # GF(2^21) does not
        (7, 27, None),  # GF(7^9) does not
    ],
)
def test_splitting_degree(q, n, expected):
    assert splitting_degree(q, n) == expected


def _power_walk(q, n):
    """Least m >= 1 with q^m == 1 (mod n), by walking the powers of q."""
    m, acc = 1, q % n
    while acc != 1 % n:
        acc = acc * q % n
        m += 1
    return m


def _within_bound(q, m):
    """The degree m, if GF(q^m) fits the supported order, else None."""
    return m if q**m <= MAX_FIELD_ORDER else None


@pytest.mark.parametrize("q", range(2, 70))
def test_splitting_degree_matches_the_power_walk(q):
    coprime = [n for n in range(1, 2001) if math.gcd(n, q) == 1]
    assert coprime[0] == 1
    expected = [_within_bound(q, _power_walk(q, n)) for n in coprime]
    assert [splitting_degree(q, n) for n in coprime] == expected
    assert None in expected  # both answers occur


def _order_from_the_totient(q, n):
    """The order of q mod n, read off Euler's totient of n, which it
    divides: every prime is divided out of phi(n) while q^e stays 1."""
    order = n
    for f in prime_factors(n):
        order -= order // f
    for f in prime_factors(order):
        while order % f == 0 and pow(q, order // f, n) == 1 % n:
            order //= f
    return order


@pytest.mark.parametrize("q", range(2, 70))
def test_splitting_degree_from_the_totient_matches_the_power_walk(q):
    # an oracle that walks no powers: the degree is the order of q mod n
    coprime = [n for n in range(1, 2001) if math.gcd(n, q) == 1]
    expected = [_within_bound(q, _order_from_the_totient(q, n)) for n in coprime]
    assert [splitting_degree(q, n) for n in coprime] == expected


@pytest.mark.parametrize(
    "q, n",
    [
        # the order of 13 mod 3e8 is 5e6
        (13, 300000000),
        # the order of 4 mod 3(2^61 - 1) is 61
        (4, 3 * (2**61 - 1)),
        # the order of 4 mod 3(2^61 - 1)(2^89 - 1) is lcm(61, 89) = 5429
        (4, 3 * (2**61 - 1) * (2**89 - 1)),
        # rho would need about 1.5e9 steps to split the two Mersenne primes
        (13, 3 * (2**61 - 1) * (2**89 - 1)),
    ],
)
def test_splitting_field_too_large_diagnostic_is_prompt(capsys, q, n):
    # n > 2^20, so no field that fits holds a primitive n-th root; construct
    # needs none, and rejects n by the length bound, whatever its factors
    from cyclic_lrc.cli import main

    start = time.perf_counter()
    rc = main(["construct", "--scheme", "thm-1.1-i", "--q", str(q), "--n", str(n), "--r", "2"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == f"length n = {n} exceeds the supported length 4096\n"
    assert elapsed < 0.2


def test_splitting_degree_rejects_shared_factor():
    with pytest.raises(ValueError):
        splitting_degree(4, 10)


@pytest.mark.parametrize("p, m, n, expected_index", [(13, 1, 12, 2), (5, 1, 4, 2)])
def test_primitive_root_examples(p, m, n, expected_index):
    field = make_field(p, m)
    assert primitive_nth_root(field, n).index == expected_index


def test_primitive_root_of_unity_order_is_exact(f25, f13):
    for field, n in [(f25, 8), (f25, 24), (f13, 12), (f13, 6), (f13, 1)]:
        beta = primitive_nth_root(field, n)
        assert field.pow(beta.index, n) == 1
        for t in range(1, n):
            assert field.pow(beta.index, t) != 1


def test_primitive_root_rejects_non_divisor(f13):
    with pytest.raises(ValueError):
        primitive_nth_root(f13, 5)


def test_nth_root_for_n_1_is_one(f25):
    assert primitive_nth_root(f25, 1) == f25.from_index(1)


def test_subfield_membership_in_gf25(f5, f25):
    one = f25.from_index(1)
    assert f25.pow(one.index, 5) == one.index
    assert _project(one, f5) == f5.from_index(1)
    beta = primitive_nth_root(f25, 8)
    assert f25.pow(beta.index, 5) != beta.index  # order 8 does not divide 4
    square = f25.pow(beta.index, 2)
    assert f25.pow(square, 5) == square
    assert _project(beta, f5) is None


@pytest.mark.parametrize("sub_pm, ext_pm", [((2, 2), (2, 4)), ((2, 3), (2, 6)), ((3, 1), (3, 4))])
def test_membership_matches_embedded_subfield_enumeration(sub_pm, ext_pm):
    sub = make_field(*sub_pm)
    ext = make_field(*ext_pm)
    elements = [sub.from_index(a) for a in range(sub.q)]
    image = {_embed(a, ext) for a in elements}
    fixed = {ext.from_index(a) for a in range(ext.q) if ext.pow(a, sub.q) == a}
    assert image == fixed
    for a in elements:
        assert _project(_embed(a, ext), sub) == a


def test_embedding_is_a_ring_homomorphism(f4):
    ext = make_field(2, 6)
    fwd, _ = _embedding(f4, ext)
    for a in range(f4.q):
        for b in range(f4.q):
            assert fwd[f4.add(a, b)] == ext.add(fwd[a], fwd[b])
            assert fwd[f4.mul(a, b)] == ext.mul(fwd[a], fwd[b])


def test_field_axioms_sampled(rng, f25, f13):
    for field in (f25, f13):
        add, mul, elems = field.add, field.mul, range(field.q)
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(a, b) == mul(b, a)
        nonzero = elems[1:]
        for _ in range(200):
            a = rng.choice(nonzero)
            assert mul(a, field.inv(a)) == 1
            assert field.pow(a, field.q - 1) == 1


def test_multiplicative_order_and_generators(f25):
    gen = primitive_nth_root(f25, 24)
    assert gen.index == 7
    assert _brute_force_order(f25, gen.index) == 24
    assert _brute_force_order(f25, 1) == 1
    # the generator is the first element of order q - 1
    assert all(_brute_force_order(f25, a) < 24 for a in range(1, gen.index))


def _brute_force_order(field, a):
    order, acc = 1, a
    while acc != 1:
        acc = field.mul(acc, a)
        order += 1
    return order


@pytest.mark.parametrize("q", [q for q in range(2, 65) if len(prime_factors(q)) == 1])
def test_multiplicative_order_matches_brute_force(q):
    # the orders the package promises: q - 1 for the generator, n for the
    # primitive n-th root of every n dividing q - 1
    field = _field_of_order(q)
    assert _brute_force_order(field, primitive_nth_root(field, q - 1).index) == q - 1
    for n in (n for n in range(1, q) if (q - 1) % n == 0):
        assert _brute_force_order(field, primitive_nth_root(field, n).index) == n, (field, n)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(24) == (2, 3)
    assert prime_factors(63) == (3, 7)


@pytest.mark.parametrize(
    "factors",
    [
        (1019, 1021),  # two primes above 2^10, product below 2^20
        (1048573,),  # the largest prime below 2^20
        (2, 2**19 - 1),
        (3**12,),
        (1023, 1025),  # 2^20 - 1
        (2**20,),
        (1021, 1024),
    ],
)
def test_prime_factors_of_large_numbers(factors):
    # every caller passes at most MAX_FIELD_ORDER: a field order, one less
    # than it, its characteristic or its degree
    n = math.prod(factors)
    assert n <= MAX_FIELD_ORDER
    expected = tuple(sorted(f for f in _trial_factors(factors)))
    with _deadline(2.0):
        assert prime_factors(n) == expected


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than hang, when the block overruns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _trial_factors(factors):
    """The distinct primes of small composite entries and the given primes."""
    out = set()
    for f in factors:
        p = 2
        while f > 1 and p * p <= f and p < 2000:
            while f % p == 0:
                out.add(p)
                f //= p
            p += 1
        if f > 1:
            out.add(f)
    return out


def test_splitting_degree_of_a_huge_length_is_certified():
    # the verdict for a length with a 61-bit prime factor is exact: no power
    # of 13 within the supported order is 1 mod n
    n = 3 * (2**61 - 1)
    with _deadline(2.0):
        assert splitting_degree(13, n) is None
    assert all(pow(13, m, n) != 1 for m in range(1, 21) if 13**m <= MAX_FIELD_ORDER)


# -- index arithmetic against an independent oracle ---------------------------

_PRIME_POWERS_TO_256 = [
    q for q in range(2, 257) if len(prime_factors(q)) == 1
]


def _field_of_order(q):
    p = prime_factors(q)[0]
    m = 1
    while p**m < q:
        m += 1
    return make_field(p, m)


def _schoolbook(field):
    """add, sub, neg and mul on indices, through digit lists: the product is
    the schoolbook convolution mod p, reduced by long division by the
    modulus.  Shares nothing with the field's own arithmetic but its modulus."""
    p, m = field.p, field.m
    modulus = field.modulus or (0, 1)  # GF(p) is GF(p)[x]/(x)

    def digits(a):
        return [a // p**i % p for i in range(m)]

    def index(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top] % p
            for i, f in enumerate(modulus):
                prod[top - m + i] -= c * f
        return index([c % p for c in prod[:m]])

    def add(a, b):
        return index([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def sub(a, b):
        return index([(x - y) % p for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return index([-x % p for x in digits(a)])

    return add, sub, neg, mul


def _check_against_schoolbook(field, pairs):
    add, sub, neg, mul = _schoolbook(field)
    for a, b in pairs:
        assert field.add(a, b) == add(a, b), (field, a, b)
        assert field.sub(a, b) == sub(a, b), (field, a, b)
        assert field.neg(a) == neg(a), (field, a)
        assert field.mul(a, b) == mul(a, b), (field, a, b)


@pytest.mark.parametrize("q", [q for q in _PRIME_POWERS_TO_256 if q <= 64])
def test_index_arithmetic_matches_schoolbook_on_every_pair(q):
    field = _field_of_order(q)
    _check_against_schoolbook(field, itertools.product(range(q), repeat=2))


@pytest.mark.parametrize("p, m", [(2, 10), (3, 7), (2, 20)])
def test_index_arithmetic_matches_schoolbook_on_samples(rng, p, m):
    field = make_field(p, m)
    extremes = [0, 1, field.q - 1]
    pairs = [(a, b) for a in extremes for b in extremes]
    pairs += [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(2000)]
    _check_against_schoolbook(field, pairs)
    _, _, _, mul = _schoolbook(field)
    for a in (rng.randrange(1, field.q) for _ in range(20)):
        acc = 1
        for e in range(12):
            assert field.pow(a, e) == acc, (field, a, e)
            assert field.mul(field.pow(a, -e), acc) == 1, (field, a, e)
            acc = mul(acc, a)


@pytest.mark.parametrize("q", _PRIME_POWERS_TO_256)
def test_every_nonzero_index_has_an_inverse(q):
    field = _field_of_order(q)
    _, _, _, mul = _schoolbook(field)
    for a in range(1, q):
        assert mul(field.inv(a), a) == 1, (field, a)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)


@pytest.mark.parametrize("p, m", [(2, 20), (3, 12), (1021, 2), (1021, 1)])
def test_inverse_on_the_largest_fields(rng, p, m):
    field = make_field(p, m)
    _, _, _, mul = _schoolbook(field)
    for a in [1, field.q - 1, *(rng.randrange(1, field.q) for _ in range(200))]:
        assert field.mul(field.inv(a), a) == 1, (field, a)
        assert mul(field.inv(a), a) == 1, (field, a)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
