from __future__ import annotations

import pytest

from cyclic_lrc.field import _embedding, _poly_eval, make_field, primitive_nth_root
from cyclic_lrc.poly import Poly


def _random_poly(rng, field, max_degree):
    degree = rng.randrange(max_degree + 1)
    return Poly(field, [rng.randrange(field.q) for _ in range(degree + 1)])


def test_cycle_division_identity(f5):
    # (x^8 - 1) / (x^2 - 2) over GF(5); quotient checked by re-multiplying
    numerator = Poly.x_pow_minus_one(f5, 8)
    divisor = Poly(f5, [3, 0, 1])  # x^2 - 2
    quotient, remainder = divmod(numerator, divisor)
    assert remainder.is_zero
    assert quotient.coeffs == (3, 0, 4, 0, 2, 0, 1)
    assert quotient * divisor == numerator


def test_division_by_self(f5, rng):
    for _ in range(20):
        f = _random_poly(rng, f5, 6)
        if f.is_zero:
            continue
        q, r = divmod(f, f)
        assert q == Poly(f5, [1]) and r.is_zero


def test_product_of_linear_factors(f13):
    prod = Poly.from_roots(f13, [1, 2])
    assert prod.coeffs == (2, 10, 1)  # x^2 + 10x + 2


def test_constructor_trims_trailing_zeros(f5):
    # the one constructor normalises, so a trailing zero changes nothing
    padded = Poly(f5, (1, 0))
    assert padded == Poly(f5, [1]) and hash(padded) == hash(Poly(f5, [1]))
    assert padded.degree == 0 and padded.is_monic
    assert divmod(Poly(f5, [3, 2]), padded) == (Poly(f5, [3, 2]), Poly(f5, []))
    assert Poly(f5, iter([0, 0])).is_zero


def test_division_by_zero_rejected(f5):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(f5, [1]), Poly(f5, []))


def test_from_roots_single(f5):
    assert Poly.from_roots(f5, [1]).coeffs == (4, 1)  # x - 1


def test_from_roots_quartic_over_gf25_projects_down(f5, f25):
    # roots 1, 2 and both square roots of 2, found by exhaustive search
    sqrt2 = [a for a in range(25) if f25.mul(a, a) == 2]
    assert len(sqrt2) == 2
    roots = [1, 2] + sqrt2
    quartic = Poly.from_roots(f25, roots)
    assert quartic.degree == 4 and quartic.is_monic
    for r in roots:
        assert _poly_eval(f25, quartic.coeffs, r) == 0
    assert all(f25.pow(c, 5) == c for c in quartic.coeffs)
    _, preimage = _embedding(f5, f25)
    projected = Poly(f5, [preimage[c] for c in quartic.coeffs])
    assert projected.coeffs == (1, 1, 0, 2, 1)  # x^4 + 2x^3 + x + 1
    for idx in (1, 2):
        assert _poly_eval(f5, projected.coeffs, idx) == 0


def test_from_roots_conjugate_closed_set_over_gf121():
    f121 = make_field(11, 2)
    beta = primitive_nth_root(f121, 12).index
    g = Poly.from_roots(f121, [f121.pow(beta, e % 12) for e in range(-4, 5)])
    assert g.degree == 9 and g.is_monic
    assert all(f121.pow(c, 11) == c for c in g.coeffs)


def test_from_roots_of_no_roots_is_one(f5):
    assert Poly.from_roots(f5, []) == Poly(f5, [1])


def test_from_roots_equals_the_product_of_its_linear_factors(rng, f13):
    for _ in range(20):
        roots = rng.sample(range(13), rng.randrange(1, 13))
        product = Poly(f13, [1])
        for r in roots:
            product = product * Poly(f13, [f13.neg(r), 1])
        assert Poly.from_roots(f13, roots) == product


def test_from_roots_rejects_duplicates(f5):
    with pytest.raises(ValueError):
        Poly.from_roots(f5, [1, 1])


def test_reciprocal_examples(f5):
    assert Poly(f5, [4, 1]).reciprocal().coeffs == (1, 4)
    witness = Poly(f5, [3, 0, 4, 0, 2, 0, 1])
    assert witness.reciprocal().coeffs == (1, 0, 2, 0, 4, 0, 3)
    assert Poly(f5, [1]).reciprocal() == Poly(f5, [1])
    with pytest.raises(ValueError):
        Poly(f5, []).reciprocal()


def test_evaluation_example(f5):
    g = Poly(f5, [1, 1, 0, 2, 1])
    assert _poly_eval(f5, g.coeffs, 1) == 0


def _divides_cycle(f, n):
    return divmod(Poly.x_pow_minus_one(f.field, n), f)[1].is_zero


def test_divides_cycle(f5):
    x_minus_1 = Poly(f5, [4, 1])
    for n in (1, 2, 7, 12):
        assert _divides_cycle(x_minus_1, n)
    assert _divides_cycle(Poly(f5, [1, 1, 0, 2, 1]), 8)
    assert not _divides_cycle(Poly(f5, [1, 1, 1]), 8)  # roots have order 3


def test_reciprocal_involution(rng, f13):
    for _ in range(50):
        f = _random_poly(rng, f13, 8)
        if f.is_zero or f.coefficient(0) == 0:
            continue
        assert f.reciprocal().reciprocal() == f


def test_degree_of_product(rng, f4):
    for _ in range(50):
        f, g = _random_poly(rng, f4, 6), _random_poly(rng, f4, 6)
        if f.is_zero or g.is_zero:
            assert (f * g).is_zero
        else:
            assert (f * g).degree == f.degree + g.degree


def test_from_roots_is_monic_and_vanishes(rng, f13):
    elems = list(range(13))
    for _ in range(30):
        roots = rng.sample(elems, rng.randrange(1, 7))
        f = Poly.from_roots(f13, roots)
        assert f.is_monic and f.degree == len(roots)
        for r in roots:
            assert _poly_eval(f13, f.coeffs, r) == 0


def test_cycle_divisor_product_is_exact(f5, f25):
    for field, n in ((f5, 4), (f25, 24)):
        g = Poly.from_roots(field, [primitive_nth_root(field, n).index])
        quotient, remainder = divmod(Poly.x_pow_minus_one(field, n), g)
        assert remainder.is_zero
        assert g * quotient == Poly.x_pow_minus_one(field, n)


def _add(f, g):
    """f + g, coefficient by coefficient on the field's indices."""
    length = max(len(f.coeffs), len(g.coeffs))
    return Poly(f.field, (f.field.add(f.coefficient(i), g.coefficient(i)) for i in range(length)))


def _binomial(field, s, c):
    """x**s - c."""
    return Poly(field, (field.neg(c), *(0,) * (s - 1), 1))


def test_divmod_round_trip(rng, f5):
    for field in (f5, make_field(13), make_field(2, 4), make_field(3, 3)):
        for _ in range(100):
            f = _random_poly(rng, field, 9)
            g = _random_poly(rng, field, 5)
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert _add(q * g, r) == f
            assert r.is_zero or r.degree < g.degree
        # sparse divisors: x^s - c, and (x - 1)(x - gamma)(x^s - alpha) as
        # in the thm generators
        for _ in range(100):
            f = _random_poly(rng, field, 30)
            s = rng.randrange(1, 12)
            gamma, alpha = rng.randrange(field.q), rng.randrange(1, field.q)
            for g in (
                _binomial(field, s, rng.randrange(field.q)),
                Poly.from_roots(field, sorted({1, gamma})) * _binomial(field, s, alpha),
            ):
                q, r = divmod(f, g)
                assert _add(q * g, r) == f
                assert r.is_zero or r.degree < g.degree
                assert divmod(f * g, g) == (f, Poly(field, []))


def test_mismatched_fields_rejected(f5, f13):
    for op in ("__mul__", "__divmod__"):
        with pytest.raises(ValueError):
            getattr(Poly(f5, [1]), op)(Poly(f13, [1]))


def test_str_rendering(f5):
    assert str(Poly(f5, [1, 1, 0, 2, 1])) == "x^4 + 2*x^3 + x + 1"
    assert str(Poly(f5, [])) == "0"
