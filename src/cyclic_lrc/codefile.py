"""Canonical JSON persistence of constructed codes.

Field elements serialize as their base-p digit list, lowest degree first;
prime-field elements abbreviate to a bare integer.  Files are written with
sorted keys and a fixed layout so that save -> load -> save is byte
identical.  Schema version 2 stores ``beta`` (with its field) only for
ex-3.2 and ex-3.3, and null for the thm schemes, which are built in GF(q)
from alpha and gamma alone; a version 1 file is a format error.

A file is valid exactly when it is what ``construct`` writes.  Loading
parses and type-checks every field, rebuilds the code with
``construct(scheme, q, n, r, d_claimed)`` and requires ``code_to_dict`` of
it to equal the stored object key by key, JSON types included, so a
tampered file is rejected rather than silently verified.  Which codes exist
is decided in :mod:`cyclic_lrc.constructions` alone.

Two error classes separate concerns for the CLI: a file that cannot be
parsed at all is a usage error, while a parseable file whose parameters
``construct`` refuses, or whose contents differ from the code it builds, is
a (reportable) integrity failure.
"""

from __future__ import annotations

import json
from pathlib import Path

from .constructions import ALL_SCHEMES, ConstructionError, LrcCode, ParameterError, construct
from .field import FiniteField, make_field
from .poly import Poly

SCHEMA_VERSION = 2


class CodeFileFormatError(ValueError):
    """The file is not a readable code description."""


class CodeFileInvariantError(ValueError):
    """The file parses but is not the code its parameters construct."""


def _element_to_json(field: FiniteField, index: int) -> int | list[int]:
    return index if field.m == 1 else list(field.digits(index))


def _int(value, what: str) -> int:
    """value, if it is a JSON integer; bool, float and str are not cast."""
    if type(value) is not int:
        raise CodeFileFormatError(f"malformed scalar field: {what} = {value!r} is not an integer")
    return value


def _check_int_list(obj, what: str) -> None:
    """Accept null or a list of JSON integers."""
    if obj is not None:
        if not isinstance(obj, list):
            raise CodeFileFormatError(f"malformed {what}: {obj!r} is not a list")
        for v in obj:
            _int(v, what)


def _check_element(field: FiniteField, obj, what: str, digits: bool = False) -> None:
    """Accept obj only as ``_element_to_json`` writes an element: a bare
    index when m = 1, else (or with ``digits``, as for beta) a list of
    exactly m digits."""
    if digits or field.m > 1:
        ok = isinstance(obj, list) and len(obj) == field.m and all(
            type(v) is int and 0 <= v < field.p for v in obj
        )
    else:
        ok = type(obj) is int and 0 <= obj < field.q
    if not ok:
        raise CodeFileFormatError(f"bad element encoding for {what}: {obj!r}")


def _poly_to_json(p: Poly) -> list:
    return [_element_to_json(p.field, c) for c in p.coeffs]


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
        "beta": None if code.beta is None else {
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
        polys = {key: data[key] for key in ("g", "h", "dual_g")}
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
    _check_int_list(data.get("modulus"), "modulus")
    for key, coeffs in polys.items():
        if not isinstance(coeffs, list):
            raise CodeFileFormatError(f"{key} must be a coefficient array")
        for c in coeffs:
            _check_element(field, c, key)
    if beta_json is not None:
        try:
            beta_field_json = beta_json["field"]
            beta_field = make_field(_int(beta_field_json["p"], "beta p"), _int(beta_field_json["m"], "beta m"))
            _check_int_list(beta_field_json.get("modulus"), "beta modulus")
            _check_element(beta_field, beta_json["rep"], "beta", digits=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise CodeFileFormatError(f"malformed beta: {exc}") from exc
    for key in ("alpha", "gamma"):
        if data.get(key) is not None:
            _check_element(field, data[key], key)

    try:
        code = construct(scheme, q, n, r, d_claimed)
    except (ConstructionError, ParameterError) as exc:
        raise CodeFileInvariantError(str(exc)) from exc
    built = code_to_dict(code)
    # compared as JSON text, which tells true from 1 and 1.0 from 1; the
    # first key that differs is named
    if json.dumps(data, sort_keys=True) != json.dumps(built, sort_keys=True):
        for key in [*built, *sorted(data.keys() - built.keys())]:
            stored, expected = (
                json.dumps(obj[key], sort_keys=True) if key in obj else "(absent)" for obj in (data, built)
            )
            if stored != expected:
                raise CodeFileInvariantError(
                    f"stored {key} = {stored}, but {scheme} at q = {q}, n = {n}, r = {r}, "
                    f"d = {d_claimed} builds {key} = {expected}"
                )
    return code


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_code(code: LrcCode, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(code_to_dict(code)), encoding="utf-8")


def load_code(path: str | Path) -> LrcCode:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CodeFileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CodeFileFormatError(f"{path} is not valid JSON: {exc}") from exc
    return code_from_dict(data)
