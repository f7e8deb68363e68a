"""Exception types shared across the library, and the type checks of numbers.

The command line maps :class:`UsageError` to exit code 2 and every other
:class:`GeometryError` to exit code 3 (verification failures are exit code 1
and are not exceptions).
"""
import math
import numbers

import numpy as np


class GeometryError(Exception):
    """Base class for all library-specific failures."""


class UsageError(GeometryError):
    """Caller violated an interface contract (bad arguments, wrong branch)."""


class DomainError(GeometryError):
    """Numeric argument outside the mathematical domain of an operation."""


class DegenerateSpanError(GeometryError):
    """Vector system too close to degenerate to define a unit complement."""


class NoSolutionError(GeometryError):
    """The admissibility polynomial has no positive region."""


class ConstructionError(GeometryError):
    """Initial data for a curve or surface construction is infeasible."""


class ProjectionError(GeometryError):
    """Projection pole lies on (or too close to) the surface."""


class ConditioningError(GeometryError):
    """Near-degenerate metric; derived quantities would be unreliable."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value) -> float:
    """A real number as a float; an int beyond the float range reads as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(value, name: str) -> float:
    """``value`` as a float; a bool or anything but a real number is a UsageError."""
    if not _is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    return _float(value)


def _array(value, name: str, error=DomainError, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``.  Elements that are not real numbers
    (None, strings and bools among them, which numpy would read as NaN, as
    numbers and as 0 or 1), an int beyond the float range and anything else
    numpy cannot read as one raise ``error`` naming it."""
    try:
        raw = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
        if raw.dtype == object:
            real = all(map(_is_real, raw.flat))
        else:
            real = raw.dtype.kind in "iuf"
        if real:
            return np.asarray(value, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        raise error(f"{name} must hold numbers within the float range") from None
    raise error(f"{name} must hold real numbers, not bools, strings or None")


def _pair(value, name: str) -> tuple[float, float]:
    """``value`` as (a, b) of floats; anything but a pair of real numbers is a UsageError."""
    try:
        a, b = value
    except (TypeError, ValueError):
        a = b = None
    if not (_is_real(a) and _is_real(b)):
        raise UsageError(f"{name} must be a pair of real numbers, got {value!r}")
    return _float(a), _float(b)
