"""Canonical JSON persistence of constructed codes.

Field elements serialize as their base-p digit list, lowest degree first;
prime-field elements abbreviate to a bare integer; polynomial coefficients
load as indices.  Files are written with sorted keys and a fixed layout so
that save -> load -> save is byte identical, and loading re-validates every
structural invariant so that a tampered file is rejected rather than
silently verified: beta must be the canonical primitive n-th root of unity,
and alpha and gamma the elements ``construct`` derives from it for the
file's scheme and parameters.

Two error classes separate concerns for the CLI: a file that cannot be
parsed at all is a usage error, while a parseable file whose contents break
the code invariants is a (reportable) integrity failure.
"""

from __future__ import annotations

import json
from pathlib import Path

from .constructions import (
    ALL_SCHEMES,
    ConstructionError,
    LrcCode,
    ParameterError,
    _plan,
    _scheme_elements,
)
from .cyclic import CyclicCode
from .field import FiniteField, make_field, splitting_root
from .poly import Poly

SCHEMA_VERSION = 1


class CodeFileFormatError(ValueError):
    """The file is not a readable code description."""


class CodeFileInvariantError(ValueError):
    """The file parses but its contents violate the code invariants."""


def _element_to_json(field: FiniteField, index: int) -> int | list[int]:
    return index if field.m == 1 else list(field.digits(index))


def _int(value, what: str) -> int:
    """value, if it is a JSON integer; bool, float and str are not cast."""
    if type(value) is not int:
        raise CodeFileFormatError(f"malformed scalar field: {what} = {value!r} is not an integer")
    return value


def _int_list(obj, what: str) -> list[int] | None:
    """obj, if it is null or a list of JSON integers."""
    if obj is None:
        return None
    if not isinstance(obj, list):
        raise CodeFileFormatError(f"malformed {what}: {obj!r} is not a list")
    return [_int(v, what) for v in obj]


def _element_from_json(field: FiniteField, obj, what: str, digits: bool = False) -> int:
    """The index that ``_element_to_json`` writes as obj: a bare index when
    m = 1, else (or with ``digits``, as for beta) a list of exactly m digits.
    No other form loads, so loading and saving reproduces the file."""
    if digits or field.m > 1:
        ok = isinstance(obj, list) and len(obj) == field.m and all(
            type(v) is int and 0 <= v < field.p for v in obj
        )
    else:
        ok = type(obj) is int and 0 <= obj < field.q
    if not ok:
        raise CodeFileFormatError(f"bad element encoding for {what}: {obj!r}")
    return field.index(obj) if isinstance(obj, list) else obj


def _poly_to_json(p: Poly) -> list:
    return [_element_to_json(p.field, c) for c in p.coeffs]


def _poly_from_json(field: FiniteField, obj, what: str) -> Poly:
    if not isinstance(obj, list):
        raise CodeFileFormatError(f"{what} must be a coefficient array")
    return Poly(field, (_element_from_json(field, c, what) for c in obj))


def code_to_dict(code: LrcCode) -> dict:
    base = code.base
    field = base.field
    return {
        "schema_version": SCHEMA_VERSION,
        "scheme": code.scheme,
        "q": field.q,
        "p": field.p,
        "m": field.m,
        "modulus": list(field.modulus) if field.modulus else None,
        "n": base.n,
        "k": base.k,
        "r": code.r,
        "d_claimed": code.d_claimed,
        "g": _poly_to_json(base.g),
        "h": _poly_to_json(base.h),
        "dual_g": _poly_to_json(base.dual_g),
        "beta": {
            "field": {
                "p": code.beta.field.p,
                "m": code.beta.field.m,
                "modulus": list(code.beta.field.modulus) if code.beta.field.modulus else None,
            },
            "rep": list(code.beta.rep),
        },
        "alpha": _element_to_json(field, code.alpha.index) if code.alpha is not None else None,
        "gamma": _element_to_json(field, code.gamma.index) if code.gamma is not None else None,
    }


def code_from_dict(data: dict) -> LrcCode:
    if not isinstance(data, dict):
        raise CodeFileFormatError("code file must hold a JSON object")
    try:
        version = data["schema_version"]
        scheme = data["scheme"]
        p, m, n, k, r, d_claimed, q = (
            _int(data[key], key) for key in ("p", "m", "n", "k", "r", "d_claimed", "q")
        )
        g_json, h_json, dual_json = data["g"], data["h"], data["dual_g"]
        beta_json = data["beta"]
    except KeyError as exc:
        raise CodeFileFormatError(f"missing key: {exc.args[0]}") from exc
    if type(version) is not int or version != SCHEMA_VERSION:
        raise CodeFileFormatError(f"unsupported schema_version {version!r}")
    if scheme not in ALL_SCHEMES:
        raise CodeFileFormatError(f"unknown scheme {scheme!r}")

    try:
        field = make_field(p, m)
    except ValueError as exc:
        raise CodeFileFormatError(str(exc)) from exc
    if field.q != q:
        raise CodeFileInvariantError(f"q = {q} does not match p^m = {field.q}")
    stored_modulus = _int_list(data.get("modulus"), "modulus")
    expected_modulus = list(field.modulus) if field.modulus else None
    if stored_modulus != expected_modulus:
        raise CodeFileInvariantError(
            f"modulus {stored_modulus} is not the canonical modulus {expected_modulus}"
        )

    g = _poly_from_json(field, g_json, "g")
    try:
        beta_field_json = beta_json["field"]
        beta_p, beta_m = _int(beta_field_json["p"], "beta p"), _int(beta_field_json["m"], "beta m")
        beta_field = make_field(beta_p, beta_m)
        beta_modulus = _int_list(beta_field_json.get("modulus"), "beta modulus")
        beta = beta_field.from_index(_element_from_json(beta_field, beta_json["rep"], "beta", digits=True))
    except (KeyError, TypeError, ValueError) as exc:
        raise CodeFileFormatError(f"malformed beta: {exc}") from exc
    if (beta_modulus or []) != list(beta_field.modulus or []):
        raise CodeFileInvariantError("beta field modulus is not canonical")
    # before the generator is divided into x^n - 1: beta exists only for an
    # n whose splitting field fits, and that bounds n
    try:
        canonical = splitting_root(field, n)
    except ValueError:
        canonical = None
    if beta != canonical:
        raise CodeFileInvariantError("beta is not the canonical primitive n-th root of unity")

    try:
        base = CyclicCode(field, n, g)
    except ValueError as exc:
        raise CodeFileInvariantError(f"invalid generator polynomial: {exc}") from exc
    if base.k != k:
        raise CodeFileInvariantError(f"stored k = {k} but n - deg g = {base.k}")
    _poly_from_json(field, h_json, "h")
    _poly_from_json(field, dual_json, "dual_g")
    if _poly_to_json(base.h) != h_json or _poly_to_json(base.dual_g) != dual_json:
        raise CodeFileInvariantError("stored h/dual_g disagree with the generator")

    alpha = data.get("alpha")
    gamma = data.get("gamma")
    try:
        code = LrcCode(
            base,
            r,
            d_claimed,
            scheme,
            beta,
            field.from_index(_element_from_json(field, alpha, "alpha")) if alpha is not None else None,
            field.from_index(_element_from_json(field, gamma, "gamma")) if gamma is not None else None,
        )
        # after the LrcCode checks; a scheme precondition that fails, or a
        # thm-3.4 alpha outside GF(q), leaves construct nothing to build
        elements = _scheme_elements(_plan(scheme, q, n, r, d_claimed), field, beta)
    except (ConstructionError, ParameterError) as exc:
        raise CodeFileInvariantError(str(exc)) from exc
    if (code.alpha, code.gamma) != elements:
        raise CodeFileInvariantError(f"alpha and gamma are not the ones {scheme} derives from beta")
    return code


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_code(code: LrcCode, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(code_to_dict(code)), encoding="utf-8")


def load_code(path: str | Path) -> LrcCode:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CodeFileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFileFormatError(f"{path} is not valid JSON: {exc}") from exc
    return code_from_dict(data)
