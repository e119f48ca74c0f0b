"""Value semantics of the package's record and value types: immutable,
equal by value (fields by identity, one instance per order), and rebuilt
intact by copy, deepcopy and pickle."""

from __future__ import annotations

import copy
import pickle

import pytest

from cyclic_lrc import (
    CandidateParams,
    CyclicCode,
    DistanceScan,
    ErasedWord,
    FieldElement,
    FiniteField,
    LocalityCheck,
    LrcCode,
    Poly,
    VerificationReport,
    construct,
    make_field,
    verify_optimal,
)


def _code():
    return construct("thm-1.1-ii", 5, n=8, r=3)


def _element():
    return make_field(5, 2).from_index(7)


# each factory builds a fresh value, equal to the one it built before;
# the name is one of the value's constructor arguments
FACTORIES = {
    FiniteField: (lambda: make_field(5, 2), "p"),
    FieldElement: (_element, "rep"),
    Poly: (lambda: Poly(make_field(5, 2), [3, 0, 7, 1]), "coeffs"),
    CyclicCode: (lambda: CyclicCode(make_field(5), 8, _code().base.g), "g"),
    LrcCode: (lambda: LrcCode(_code().base, 3, 4, "thm-1.1-ii", _code().beta, _code().alpha,
                              _code().gamma), "r"),
    DistanceScan: (lambda: DistanceScan(4, 4, True, 624), "lower"),
    LocalityCheck: (lambda: LocalityCheck(True, 3, "coset-witness", 2, (1, 2, 4, 3)), "ok"),
    VerificationReport: (lambda: verify_optimal(_code()), "verdict"),
    CandidateParams: (lambda: CandidateParams("thm-1.1-i", 4, 9, 2, 3, 5), "k"),
    ErasedWord: (lambda: ErasedWord.from_symbols([_element(), None, _element()]), "erased_at"),
}


@pytest.fixture(params=list(FACTORIES), ids=lambda cls: cls.__name__)
def factory(request):
    return FACTORIES[request.param][0]


def test_every_type_is_covered():
    for cls, (make, name) in FACTORIES.items():
        assert type(make()) is cls and hasattr(make(), name)


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda cls: cls.__name__)
def test_attributes_cannot_be_set_or_deleted(cls):
    make, name = FACTORIES[cls]
    value = make()
    before = getattr(value, name)
    for attempt in (
        lambda: setattr(value, name, None),
        lambda: setattr(value, "extra", None),
        lambda: delattr(value, name),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(value, name) is before
    assert not hasattr(value, "extra")


def test_equal_values_are_equal_and_hash_equal(factory):
    a, b = factory(), factory()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal_values(factory, clone):
    value = factory()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)


def test_copied_fields_resolve_to_the_canonical_instance():
    # deepcopy and pickle of a field are pinned in test_field.py
    f25 = make_field(5, 2)
    assert copy.copy(f25) is f25
    assert copy.deepcopy(_element()).field is f25
    assert pickle.loads(pickle.dumps(_code())).field is make_field(5)


def test_cached_properties_survive_copies():
    code = _code()
    plan = code.repair_plan
    parity = code.base.systematic_parity
    twin = copy.deepcopy(code)
    assert twin.repair_plan == plan and twin.base.systematic_parity == parity
    with pytest.raises(AttributeError):
        code.base.systematic_parity = ()
    assert code.base.systematic_parity is parity


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_stated_zeros_survive_copies_and_take_no_part_in_equality(clone):
    code = _code()
    zeros = code.base.root_exponents
    assert zeros is not None and clone(code).base.root_exponents == zeros
    dual = code.base.dual()
    assert dual.root_exponents is not None and clone(dual).root_exponents == dual.root_exponents
    bare = CyclicCode(code.field, code.n, code.base.g)
    assert bare == code.base and bare.root_exponents is None


def test_values_of_different_types_or_contents_differ():
    f5, f25 = make_field(5), make_field(5, 2)
    assert f5 != f25
    assert f5.from_index(3) != f25.from_index(3)
    assert Poly(f5, [1, 1]) != Poly(f5, [1, 2])
    code = _code()
    assert code.base != code.base.dual()
    assert repr(f25.from_index(7)) == "GF(25):7"
    assert repr(Poly(f5, [2])) == "Poly(field=GF(5), coeffs=(2,))"
