"""Flat-file codecs for ensembles and POVMs.

JSON-compatible structured text; complex matrices are stored as separate
real and imaginary n x n arrays.  Numbers are written with 17 significant
digits so decode(encode(x)) round-trips float64 exactly, and objects are
serialized with fixed key order so identical inputs give byte-identical
files.  One writer serves both file kinds: it fills a text template of the
fixed layout with every number of the matrix stack in one pass.
"""

from __future__ import annotations

import json

import numpy as np

from . import _checks
from .errors import InfopurityError, NonHermitianError, ValidationError
from .operators import DensityOperator, Ensemble, HermitianOperator, Povm, _hermitian_stack


def _write(dim: int, key: str, matrices: np.ndarray, weights=None) -> str:
    """File text of a ``(K, dim, dim)`` complex stack under ``key``, each
    entry led by its weight if ``weights`` is given; "%.17g" is format(x, ".17g")."""
    rows = ",\n".join(["        [" + ", ".join(["%.17g"] * dim) + "]"] * dim)
    block = f"[\n{rows}\n      ]"
    count = len(matrices)
    columns = [matrices.real.reshape(count, -1), matrices.imag.reshape(count, -1)]
    head = "    {\n"
    if weights is not None:
        head += '      "weight": %.17g,\n'
        columns.insert(0, weights[:, None])
    entry = f'{head}      "matrix_re": {block},\n      "matrix_im": {block}\n    }}'
    # one small % per entry: a single % over the whole file grows the heap
    body = ",\n".join([entry % tuple(v) for v in np.hstack(columns).tolist()])
    return f'{{\n  "dim": {dim},\n  "{key}": [\n{body}\n  ]\n}}\n'


def encode_ensemble(ensemble: Ensemble) -> str:
    matrices = np.stack([s.matrix for s in ensemble.states])
    return _write(ensemble.dim, "states", matrices, ensemble.weights)


def encode_povm(povm: Povm) -> str:
    return _write(povm.dim, "elements", povm.stack())


def _require(data, key: str):
    if not isinstance(data, dict):
        raise ValidationError(f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"missing key {key!r}")
    return data[key]


def _is_number(x) -> bool:
    # JSON true/false decode as bool, which Python counts as int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("top-level value must be an object")
    return data


def _decode_dim(data: dict) -> int:
    dim = _require(data, "dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"dim {dim!r} must be a positive integer", field="dim")
    return dim


def _decode_list(data: dict, key: str, decode_entry) -> list:
    """``decode_entry`` applied to each entry of the non-empty list
    ``data[key]``; any package error it raises is reported as a
    ValidationError naming the entry."""
    entries = _require(data, key)
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{key} must be a non-empty list", field=key)
    decoded = []
    for k, entry in enumerate(entries):
        try:
            decoded.append(decode_entry(entry))
        except InfopurityError as exc:
            raise ValidationError(str(exc), field=f"{key}[{k}]") from exc
    return decoded


def _decode_matrix(entry: dict, dim: int) -> np.ndarray:
    parts = []
    for name in ("matrix_re", "matrix_im"):
        part = _require(entry, name)
        # rejects ragged rows, nesting, non-numbers, ints too large for a
        # float and JSON's NaN and Infinity
        matrix = _checks.array(part, name, ndim=2)
        if matrix.shape != (dim, dim):
            raise ValidationError(f"{name} must be {dim} x {dim}, got shape {matrix.shape}")
        # the conversion above also accepts numeric strings and bools
        if not all(_is_number(x) for row in part for x in row):
            raise ValidationError(f"{name} has an entry that is not a number")
        parts.append(matrix)
    return parts[0] + 1j * parts[1]


def decode_ensemble(text: str, subnormalized: bool = False) -> Ensemble:
    """Parse an ensemble file.

    With ``subnormalized=True`` the states are raw (weight-carrying)
    matrices rho_x; weights are taken from their traces and no explicit
    weight field is expected.
    """
    data = _parse_object(text)
    dim = _decode_dim(data)

    def decode_state(entry):
        mat = _decode_matrix(entry, dim)
        if subnormalized:
            weight = float(np.trace(mat).real)
            if weight <= 0.0:
                raise ValidationError(f"sub-normalized state has trace {weight!r}")
            mat = mat / weight
        else:
            weight = _require(entry, "weight")
            if not _is_number(weight):
                raise ValidationError(f"weight {weight!r} is not a number")
        return weight, DensityOperator(mat)

    return Ensemble(_decode_list(data, "states", decode_state))


def _matrix_stack(entries, dim: int) -> np.ndarray | None:
    """The matrices of a non-empty list of well-formed entries as one
    ``(K, dim, dim)`` complex array, converted at once; None for anything
    that ``_decode_list`` or ``_decode_matrix`` would reject."""
    try:
        blocks = [(entry["matrix_re"], entry["matrix_im"]) for entry in entries]
        parts = np.asarray(blocks, dtype=float)
    except (TypeError, KeyError, ValueError, OverflowError):
        return None
    if parts.shape != (len(blocks), 2, dim, dim) or not np.isfinite(parts).all():
        return None
    # the conversion also accepts numeric strings and bools; JSON numbers
    # decode as int or float only
    types = {type(x) for block in blocks for part in block for row in part for x in row}
    return parts[:, 0] + 1j * parts[:, 1] if types <= {int, float} else None


def decode_povm(text: str) -> Povm:
    data = _parse_object(text)
    dim = _decode_dim(data)
    stack = _matrix_stack(_require(data, "elements"), dim)
    if stack is None:
        # a malformed entry: decode one at a time, so the first bad entry
        # raises its own error
        return Povm(
            _decode_list(data, "elements", lambda e: HermitianOperator(_decode_matrix(e, dim)))
        )
    try:
        return Povm(stack)
    except NonHermitianError:
        _hermitian_stack(stack, "elements")  # the same error, naming the element
        raise


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"file is not UTF-8 text: {exc}") from exc


def load_ensemble(path, subnormalized: bool = False) -> Ensemble:
    return decode_ensemble(_read_text(path), subnormalized=subnormalized)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def save_ensemble(path, ensemble: Ensemble) -> None:
    _write_text(path, encode_ensemble(ensemble))


def load_povm(path) -> Povm:
    return decode_povm(_read_text(path))


def save_povm(path, povm: Povm) -> None:
    _write_text(path, encode_povm(povm))
