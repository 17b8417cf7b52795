"""JSON encoding of the artifacts the CLI reads and writes.

Complex numbers travel as {"re": float, "im": float} objects; vectors and
matrices as (nested) arrays of those; points of C^2 as two-element arrays.
Decoding is strict: missing keys, wrong types, inconsistent shapes, and
non-finite numbers all raise ParseError with a message naming the offender.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .colligation import Colligation, SubspaceSplit
from .errors import ConfigError, ParseError
from .synthesis import BidiscModelSpec, PolyVectorMap, ScalarPoly


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj: Any, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError(f"{where}: expected an object with keys 're' and 'im'")
    return complex(_real_number(obj["re"], f"{where}.re"), _real_number(obj["im"], f"{where}.im"))


def _plain_complex(obj: Any) -> complex | None:
    """The finite value of a {"re": float, "im": float} object, else None for the strict path."""
    if type(obj) is dict and len(obj) == 2 and type(obj.get("re")) is type(obj.get("im")) is float:
        if math.isfinite(obj["re"]) and math.isfinite(obj["im"]):
            return complex(obj["re"], obj["im"])
    return None


def vector_to_json(vec) -> list:
    return [complex_to_json(z) for z in np.asarray(vec, dtype=complex).reshape(-1)]


def vector_from_json(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an array")
    values = [_plain_complex(z) for z in obj]
    if None in values:
        values = [complex_from_json(z, f"{where}[{i}]") for i, z in enumerate(obj)]
    return np.array(values, dtype=complex)


def matrix_to_json(mat) -> list:
    return [vector_to_json(row) for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = [vector_from_json(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    lengths = {row.shape[0] for row in rows}
    if len(lengths) != 1:
        raise ParseError(f"{where}: ragged rows with lengths {sorted(lengths)}")
    return np.vstack(rows)


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


def _real_number(obj: Any, where: str) -> float:
    """A JSON number as a finite float; booleans and integers too large for a float fail."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ParseError(f"{where}: expected a finite number")
    try:
        value = float(obj)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: expected a finite number")
    return value


def _int_number(obj: Any, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ParseError(f"{where}: expected an integer")
    return obj


def colligation_to_json(c: Colligation) -> dict:
    return {
        "r": c.r,
        "d1": c.split.d1,
        "a": complex_to_json(c.a),
        "beta": vector_to_json(c.beta),
        "gamma": vector_to_json(c.gamma),
        "D": matrix_to_json(c.D),
        "U": matrix_to_json(c.U),
    }


def colligation_from_json(obj: Any) -> Colligation:
    where = "colligation"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    r = _real_number(_require(obj, "r", where), f"{where}.r")
    d1 = _int_number(_require(obj, "d1", where), f"{where}.d1")
    a = complex_from_json(_require(obj, "a", where), f"{where}.a")
    beta = vector_from_json(_require(obj, "beta", where), f"{where}.beta")
    gamma = vector_from_json(_require(obj, "gamma", where), f"{where}.gamma")
    d_mat = matrix_from_json(_require(obj, "D", where), f"{where}.D")
    u_mat = matrix_from_json(_require(obj, "U", where), f"{where}.U")
    try:  # the constructors refuse r, the split and the block shapes
        split = SubspaceSplit(d1, beta.shape[0] - d1)
        return Colligation(r=r, split=split, a=a, beta=beta, gamma=gamma, D=d_mat, U=u_mat)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _poly_from_json(parent: dict, key: str, where: str, coeff_from_json, make):
    """``make(terms)`` for the {"j", "k", "coeff"} terms at ``parent[key]``, errors as ParseError."""
    obj = _require(parent, key, where)
    where = f"{where}.{key}"
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an array of terms")
    terms = []
    for i, term in enumerate(obj):
        at = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ParseError(f"{at}: expected an object")
        j = _int_number(_require(term, "j", at), f"{at}.j")
        k = _int_number(_require(term, "k", at), f"{at}.k")
        terms.append(((j, k), coeff_from_json(_require(term, "coeff", at), f"{at}.coeff")))
    try:
        return make(tuple(terms))
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _poly_to_json(poly, coeff_to_json) -> list:
    return [{"j": j, "k": k, "coeff": coeff_to_json(c)} for (j, k), c in poly.terms]


def model_spec_to_json(spec: BidiscModelSpec) -> dict:
    return {
        "r": spec.r,
        "d1": spec.d1,
        "d2": spec.d2,
        "u1": _poly_to_json(spec.u1, vector_to_json),
        "u2": _poly_to_json(spec.u2, vector_to_json),
        "F": _poly_to_json(spec.F, complex_to_json),
    }


def model_spec_from_json(obj: Any) -> BidiscModelSpec:
    where = "model spec"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    r = _real_number(_require(obj, "r", where), f"{where}.r")
    d1 = _int_number(_require(obj, "d1", where), f"{where}.d1")
    d2 = _int_number(_require(obj, "d2", where), f"{where}.d2")
    u1 = _poly_from_json(obj, "u1", where, vector_from_json, partial(PolyVectorMap, d1))
    u2 = _poly_from_json(obj, "u2", where, vector_from_json, partial(PolyVectorMap, d2))
    f_poly = _poly_from_json(obj, "F", where, complex_from_json, ScalarPoly)
    try:
        return BidiscModelSpec(r=r, d1=d1, d2=d2, u1=u1, u2=u2, F=f_poly)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_json(path: str | Path) -> Any:
    where = "input"
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON in {path}: {exc}") from exc


def dump_json(obj: Any, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(obj) + "\n")
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path}: {exc}") from exc
