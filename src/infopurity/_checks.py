"""Input checks shared by every public entry point.

Each checker raises the typed error its caller documents.  The scalar
checkers are plain Python with no numpy call and no exception handler,
because a curve point runs several of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# Philox keys are two unsigned 64-bit words
SEED_MAX = 2**64 - 1
# upper end of the half-open ranges (0, inf): infinity itself is rejected
FLOAT_MAX = float(np.finfo(float).max)

_REALS = (int, float, np.integer, np.floating)


def integer(value, name: str, lo: int, hi=math.inf, error=ValidationError) -> int:
    """``value`` as an int; raises ``error`` unless it is an integer (a
    bool is not) in [lo, hi]."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and lo <= value <= hi):
        raise error(f"{name} {value!r} must be an integer in [{lo}, {hi}]")
    return int(value)


def real(value, name: str, lo: float, hi: float, error=ValidationError, lo_open: bool = False):
    """``value`` clamped to [lo, hi].

    Raises ``error`` unless ``value`` is a real number at most 1e-12
    outside [lo, hi]; with ``lo_open`` it must lie strictly above ``lo``.
    NaN fails every comparison and is rejected.
    """
    if not isinstance(value, _REALS) or not (
        (value > lo if lo_open else value >= lo - 1e-12) and value <= hi + 1e-12
    ):
        raise error(f"{name} {value!r} outside {'(' if lo_open else '['}{lo:g}, {hi:g}]")
    return min(max(value, lo), hi)


def items(values, name: str, error=ValidationError, pairs: bool = False) -> list:
    """``values`` as a list, of 2-tuples when ``pairs``; raises ``error``
    unless it is iterable and, with ``pairs``, every item unpacks into
    two."""
    try:
        out = list(values)
    except TypeError as exc:
        raise error(f"{name} is not iterable: {exc}") from exc
    if pairs:
        for k, item in enumerate(out):
            try:
                first, second = item
            except (TypeError, ValueError) as exc:
                raise error(f"{name}[{k}] is not a pair: {exc}") from exc
            out[k] = (first, second)
    return out


def array(values, name: str, error=ValidationError, ndim: int | None = 1, dtype=float):
    """``values`` as a non-empty finite array of ``ndim`` dimensions
    (flattened when ``ndim`` is None); raises ``error`` otherwise."""
    try:
        v = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} entries are not numbers: {exc}") from exc
    if ndim is None:
        v = v.reshape(-1)
    elif v.ndim != ndim:
        raise error(f"{name} must have {ndim} dimensions, got shape {v.shape}")
    if v.size == 0:
        raise error(f"{name} is empty")
    if not np.isfinite(v).all():
        raise error(f"{name} has a non-finite entry")
    return v


def probabilities(
    values, name: str, error=ValidationError, floor: float = -1e-12, ndim: int | None = 1
) -> np.ndarray:
    """``values`` checked as a probability array and floored at zero.

    Raises ``error`` unless ``values`` passes ``array``, has no entry
    below ``floor`` (roundoff allowance) and sums to 1 within 1e-10.
    """
    v = array(values, name, error, ndim)
    low = v.min()
    if low < floor:
        raise error(f"{name} has entry {low:.3e} < {floor:g}")
    total = v.sum()
    if abs(total - 1.0) > 1e-10:
        raise error(f"{name} sums to {total!r}, not 1 within 1e-10")
    return np.maximum(v, 0.0)
