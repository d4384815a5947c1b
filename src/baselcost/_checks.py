"""Argument checks, one per value kind. Each returns the value or raises a DataError
naming the field and the value; a bool (numpy's too) is neither a number nor an int."""

import math
import operator

from .errors import DataError

_BOOLS = ("bool", "bool_")  # bool's type names; numpy's is bool_ before numpy 2


def flag(name: str, v):
    if v is True or v is False:
        return v
    raise DataError(f"{name} must be True or False, got {v!r}")


def real(name: str, v):
    if type(v) is float and v - v == 0.0:  # the common case first; inf - inf is nan
        return v
    try:
        if type(v).__name__ not in _BOOLS and math.isfinite(v):
            return v
    except (TypeError, OverflowError):  # not a number; an int beyond a double
        pass
    kind = "a number" if type(v).__name__ in _BOOLS or not hasattr(v, "__float__") else "finite"
    raise DataError(f"{name} must be {kind}, got {v!r}")


def integer(name: str, v, least: int | None = None) -> int:
    """v as an int (numpy integers too), at least `least` if that is given."""
    i = None if type(v).__name__ in _BOOLS or not hasattr(v, "__index__") else operator.index(v)
    if i is not None and (least is None or i >= least):
        return i
    want = {None: "an integer", 0: "a non-negative integer"}.get(least, f"an integer >= {least}")
    raise DataError(f"{name} must be {want}, got {v!r}")


def json_number(name: str, v) -> float:
    """A number parsed from JSON, as a float; float() alone would read true and "0.3"."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DataError(f"{name} must be a JSON number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an int beyond a double
        raise DataError(f"{name} is too large for a float") from None
