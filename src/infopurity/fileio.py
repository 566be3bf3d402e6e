"""Flat-file codecs for ensembles and POVMs.

JSON-compatible structured text; complex matrices are stored as separate
real and imaginary n x n arrays.  Numbers are written with 17 significant
digits so decode(encode(x)) round-trips float64 exactly, and objects are
serialized with fixed key order so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .operators import DensityOperator, Ensemble, HermitianOperator, Povm


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _dump(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(k)}: {_dump(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if flat:
            return "[" + ", ".join(_format_number(v) for v in obj) + "]"
        parts = [f"{inner}{_dump(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _format_number(obj)


def _matrix_fields(matrix: np.ndarray) -> dict:
    return {
        "matrix_re": [list(map(float, row)) for row in matrix.real],
        "matrix_im": [list(map(float, row)) for row in matrix.imag],
    }


def encode_ensemble(ensemble: Ensemble) -> str:
    states = []
    for w, s in ensemble.items:
        entry = {"weight": float(w)}
        entry.update(_matrix_fields(s.matrix))
        states.append(entry)
    return _dump({"dim": ensemble.dim, "states": states}) + "\n"


def encode_povm(povm: Povm) -> str:
    elements = [_matrix_fields(e.matrix) for e in povm.elements]
    return _dump({"dim": povm.dim, "elements": elements}) + "\n"


def _require(data, key: str, where: str):
    if not isinstance(data, dict):
        raise ValidationError(f"expected an object, got {type(data).__name__}", field=where)
    if key not in data:
        raise ValidationError(f"missing key {key!r}", field=where)
    return data[key]


def _is_number(x) -> bool:
    # JSON true/false decode as bool, which Python counts as int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("top-level value must be an object")
    return data


def _decode_dim(data: dict, where: str) -> int:
    dim = _require(data, "dim", where)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"dim {dim!r} must be a positive integer", field="dim")
    return dim


def _decode_matrix(entry: dict, dim: int, where: str) -> np.ndarray:
    re = _require(entry, "matrix_re", where)
    im = _require(entry, "matrix_im", where)
    for name, part in (("matrix_re", re), ("matrix_im", im)):
        if not isinstance(part, list) or len(part) != dim:
            raise ValidationError(f"{name} must be a list of {dim} rows", field=where)
        for i, row in enumerate(part):
            if not isinstance(row, list) or len(row) != dim:
                raise ValidationError(
                    f"{name} row {i} must be a list of {dim} entries", field=where
                )
            if not all(_is_number(x) for x in row):
                raise ValidationError(f"{name} row {i} has a non-numeric entry", field=where)
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def decode_ensemble(text: str, subnormalized: bool = False) -> Ensemble:
    """Parse an ensemble file.

    With ``subnormalized=True`` the states are raw (weight-carrying)
    matrices rho_x; weights are taken from their traces and no explicit
    weight field is expected.
    """
    data = _parse_object(text)
    dim = _decode_dim(data, "ensemble")
    states = _require(data, "states", "ensemble")
    if not isinstance(states, list) or not states:
        raise ValidationError("states must be a non-empty list", field="states")
    items = []
    for k, entry in enumerate(states):
        where = f"states[{k}]"
        mat = _decode_matrix(entry, dim, where)
        if subnormalized:
            weight = float(np.trace(mat).real)
            if weight <= 0.0:
                raise ValidationError(
                    f"sub-normalized state has trace {weight!r}", field=where
                )
            mat = mat / weight
        else:
            weight = _require(entry, "weight", where)
            if not _is_number(weight):
                raise ValidationError(f"weight {weight!r} is not a number", field=where)
        try:
            items.append((weight, DensityOperator(mat)))
        except ValidationError as exc:
            raise ValidationError(str(exc), field=where) from exc
    try:
        return Ensemble(items)
    except ValidationError as exc:
        raise ValidationError(str(exc)) from exc


def decode_povm(text: str) -> Povm:
    data = _parse_object(text)
    dim = _decode_dim(data, "povm")
    elements = _require(data, "elements", "povm")
    if not isinstance(elements, list) or not elements:
        raise ValidationError("elements must be a non-empty list", field="elements")
    ops = []
    for k, entry in enumerate(elements):
        where = f"elements[{k}]"
        mat = _decode_matrix(entry, dim, where)
        try:
            ops.append(HermitianOperator(mat))
        except Exception as exc:
            raise ValidationError(str(exc), field=where) from exc
    return Povm(ops)


def load_ensemble(path, subnormalized: bool = False) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return decode_ensemble(fh.read(), subnormalized=subnormalized)


def save_ensemble(path, ensemble: Ensemble) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(encode_ensemble(ensemble))


def load_povm(path) -> Povm:
    with open(path, "r", encoding="utf-8") as fh:
        return decode_povm(fh.read())


def save_povm(path, povm: Povm) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(encode_povm(povm))
