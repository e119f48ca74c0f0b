from __future__ import annotations

import json

import pytest

from cyclic_lrc.codefile import (
    CodeFileFormatError,
    CodeFileInvariantError,
    code_from_dict,
    code_to_dict,
    dumps_canonical,
    load_code,
    save_code,
)


def test_round_trip_identity(acceptance_codes, tmp_path):
    for name, code in acceptance_codes.items():
        path = tmp_path / f"{name}.json"
        save_code(code, path)
        loaded = load_code(path)
        assert loaded == code
        # byte identity on re-save
        again = tmp_path / f"{name}-2.json"
        save_code(loaded, again)
        assert path.read_bytes() == again.read_bytes()


def test_prime_field_elements_abbreviate_to_integers(code_8_4_4, acceptance_codes):
    data = code_to_dict(code_8_4_4)
    assert data["g"] == [1, 1, 0, 2, 1]
    assert data["alpha"] == 2  # omega, of order r + 1 = 4
    assert data["modulus"] is None
    assert data["beta"] is None  # thm codes are built without one
    # beta of the ex-3.3 code over GF(11) lies in GF(121): a digit list
    beta = code_to_dict(acceptance_codes["coset-q11-d10"])["beta"]
    assert beta == {"field": {"p": 11, "m": 2, "modulus": [1, 0, 1]}, "rep": [8, 6]}


def test_extension_field_elements_are_digit_lists(code_9_5_3):
    data = code_to_dict(code_9_5_3)
    assert data["q"] == 4 and data["p"] == 2 and data["m"] == 2
    assert data["modulus"] == [1, 1, 1]
    assert all(isinstance(c, list) and len(c) == 2 for c in data["g"])


def test_tampered_generator_rejected(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    data["g"][0] = 3
    with pytest.raises(CodeFileInvariantError, match=r"^stored g = \[3, 1, 0, 2, 1\], "):
        code_from_dict(data)


def test_tampered_dimension_rejected(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    data["k"] = 5
    with pytest.raises(CodeFileInvariantError, match="stored k"):
        code_from_dict(data)


def test_tampered_parity_rejected(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    data["h"][0] = 1
    with pytest.raises(CodeFileInvariantError, match=r"^stored h = \[1, "):
        code_from_dict(data)


def test_tampered_claim_rejected(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    data["d_claimed"] = 5
    with pytest.raises(CodeFileInvariantError, match="^scheme thm-1.1-ii fixes d = 4, got 5$"):
        code_from_dict(data)


def test_noncanonical_modulus_rejected(code_9_5_3):
    data = code_to_dict(code_9_5_3)
    data["modulus"] = [1, 0, 1]
    with pytest.raises(CodeFileInvariantError, match=r"^stored modulus = \[1, 0, 1\], .* builds modulus = \[1, 1, 1\]$"):
        code_from_dict(data)


def test_tampered_beta_rejected(code_8_4_4, acceptance_codes):
    # the [12, 3, 10] ex-3.3 code stores beta = GF(121):74, digits [8, 6]
    for rep, message in [
        ([1, 0], r"^stored beta = .*\[1, 0\]"),  # the identity is no primitive 12th root
        ([3, 6], r"^stored beta = .*\[3, 6\]"),  # beta^5: primitive, not canonical
    ]:
        data = code_to_dict(acceptance_codes["coset-q11-d10"])
        data["beta"]["rep"] = rep
        with pytest.raises(CodeFileInvariantError, match=message):
            code_from_dict(data)
    # the [8, 4, 4] GF(5) code stores no beta and alpha = gamma = 2
    for key, value, message in [
        ("beta", code_to_dict(acceptance_codes["coset-q11-d10"])["beta"], "^stored beta = .* builds beta = null$"),
        ("alpha", 3, "^stored alpha = 3, .* builds alpha = 2$"),
        ("gamma", 4, "^stored gamma = 4, .* builds gamma = 2$"),
    ]:
        data = code_to_dict(code_8_4_4)
        data[key] = value
        with pytest.raises(CodeFileInvariantError, match=message):
            code_from_dict(data)


def test_file_must_equal_the_constructed_code_key_by_key(code_8_4_4, code_9_5_3):
    # every key construct writes is required, and no other key is allowed
    data = code_to_dict(code_9_5_3)
    del data["gamma"]
    with pytest.raises(CodeFileInvariantError, match=r"^stored gamma = \(absent\), .* builds gamma = null$"):
        code_from_dict(data)
    data = code_to_dict(code_8_4_4)
    data["comment"] = "hand edited"
    with pytest.raises(CodeFileInvariantError, match=r'^stored comment = "hand edited", .* = \(absent\)$'):
        code_from_dict(data)
    assert code_from_dict(code_to_dict(code_8_4_4)) == code_8_4_4


def test_schema_version_guard(code_8_4_4):
    # version 1 files stored a beta for every scheme
    for version in (1, 99):
        data = code_to_dict(code_8_4_4)
        data["schema_version"] = version
        with pytest.raises(CodeFileFormatError, match="schema_version"):
            code_from_dict(data)


def test_missing_key_is_a_format_error(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    del data["g"]
    with pytest.raises(CodeFileFormatError, match="missing key"):
        code_from_dict(data)


def test_unknown_scheme_is_a_format_error(code_8_4_4):
    data = code_to_dict(code_8_4_4)
    data["scheme"] = "thm-7.7"
    with pytest.raises(CodeFileFormatError, match="unknown scheme"):
        code_from_dict(data)


def test_out_of_range_digit_rejected(code_9_5_3):
    data = code_to_dict(code_9_5_3)
    data["g"][0] = [7, 0]
    with pytest.raises(CodeFileFormatError, match="bad element"):
        code_from_dict(data)


@pytest.mark.parametrize(
    "path, value",
    [
        (("r",), 3.9),
        (("n",), "8"),
        (("k",), 4.0),
        (("d_claimed",), 4.5),
        (("schema_version",), True),
        (("schema_version",), 1.0),
        (("g", 0), True),
        (("h", 2), True),
        (("beta", "rep", 0), 3.0),
        (("beta", "field", "modulus", 1), True),
    ],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else repr(v),
)
def test_non_integer_json_numbers_are_format_errors(code_8_4_4, acceptance_codes, path, value):
    # int() accepts each value, so only a type check on every scalar,
    # element and digit rejects it; beta is tampered in an ex-3.3 code, the
    # thm code storing none
    data = code_to_dict(acceptance_codes["coset-q11-d10"] if path[0] == "beta" else code_8_4_4)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CodeFileFormatError):
        code_from_dict(data)


def test_unreadable_files(tmp_path):
    target = tmp_path / "garbage.json"
    target.write_text("{not json", encoding="utf-8")
    with pytest.raises(CodeFileFormatError, match="not valid JSON"):
        load_code(target)
    with pytest.raises(CodeFileFormatError):
        load_code(tmp_path / "missing.json")


def test_canonical_dump_is_stable(code_8_4_4):
    a = dumps_canonical(code_to_dict(code_8_4_4))
    b = dumps_canonical(code_to_dict(code_8_4_4))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["scheme"] == "thm-1.1-ii"
