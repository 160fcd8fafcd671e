"""Shared argument-validation helpers.

Every public entry point in the library validates its inputs eagerly and
raises with a message naming the offending argument, so that failures
surface at the API boundary rather than deep inside vectorized kernels.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_int",
    "check_non_negative",
    "check_fraction",
    "check_in",
    "as_demand_array",
]


def check_positive(name: str, value: float) -> float:
    """Return *value* if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_int(name: str, value: Any) -> int:
    """Return *value* as an ``int`` if it is an integer (numpy integers
    included, via ``operator.index``), else raise ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_non_negative(name: str, value: float) -> float:
    """Return *value* if >= 0, else raise ``ValueError`` (NaN included;
    ``inf`` passes)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Return *value* if within [0, 1], else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Sequence[Any]) -> Any:
    """Return *value* if it is one of *allowed*, else raise ``ValueError``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)!r}, got {value!r}")
    return value


def as_demand_array(name: str, values: Any, dims: int | None = None) -> np.ndarray:
    """Coerce *values* to a 1-D non-negative float64 array.

    Parameters
    ----------
    name:
        Argument name used in error messages.
    values:
        Scalar or sequence of resource quantities.
    dims:
        If given, the required length of the resulting vector.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    # Fast proof for the common case: ``0.0 <= v < inf`` is False for NaN
    # and for either infinity, so one pass over Python floats settles
    # every check below; only inputs that fail it pay for the numpy
    # checks, which pick the error message.
    if (
        arr.ndim == 1
        and (dims is None or arr.shape[0] == dims)
        and all(0.0 <= v < math.inf for v in arr.tolist())
    ):
        return arr
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative, got {arr!r}")
    if dims is not None and arr.shape[0] != dims:
        raise ValueError(f"{name} must have {dims} dimensions, got {arr.shape[0]}")
    return arr
