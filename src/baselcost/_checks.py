"""Argument checks, one per value kind. Each returns the value or raises a
DataError naming the field and the value; a bool is neither a number nor an int."""

import math
import operator

from .errors import DataError


def flag(name: str, v):
    if v is True or v is False:
        return v
    raise DataError(f"{name} must be True or False, got {v!r}")


def real(name: str, v):
    if type(v) is float and v - v == 0.0:  # the common case first; inf - inf is nan
        return v
    try:
        if not isinstance(v, bool) and math.isfinite(v):
            return v
    except (TypeError, OverflowError):  # not a number; an int beyond a double
        pass
    kind = "a number" if isinstance(v, bool) or not hasattr(v, "__float__") else "finite"
    raise DataError(f"{name} must be {kind}, got {v!r}")


def integer(name: str, v, least: int | None = None) -> int:
    """v as an int (numpy integers too), at least `least` if that is given."""
    i = None if isinstance(v, bool) or not hasattr(v, "__index__") else operator.index(v)
    if i is not None and (least is None or i >= least):
        return i
    want = {None: "an integer", 0: "a non-negative integer"}.get(least, f"an integer >= {least}")
    raise DataError(f"{name} must be {want}, got {v!r}")
