"""Exception types shared across the package, and the checks of integer counts and open ranges."""

import numbers

import numpy as np


class RandomizerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(RandomizerError, ValueError):
    """Matrix input violates a structural contract (non-finite, not Hermitian, not unitary)."""


class InvalidParameter(RandomizerError, ValueError):
    """Scalar parameter outside its documented domain."""


class InvalidDimension(InvalidParameter):
    """Dimension or count argument is not a positive integer (non-negative where 0 is allowed)."""


class DimensionMismatch(RandomizerError, ValueError):
    """Operands live in different dimensions."""


class NumericalFailure(RandomizerError, RuntimeError):
    """A numerical routine failed to converge or exhausted its retries."""


class NetInfeasible(InvalidParameter):
    """Requested net exceeds the covering guard or the builder's work ceiling."""


class ParseError(RandomizerError, ValueError):
    """Persisted file is malformed or carries the wrong schema."""


def _require_int(value, name: str, least: int, kind: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidDimension(f"{name} must be {kind}, got {value!r}")
    return int(value)


def require_positive_int(value, name: str) -> int:
    """``value``, a dimension or a count, as an int; not a positive integer: InvalidDimension.

    A bool, a float (even a whole one) and a string are refused, never truncated or cast.
    """
    return _require_int(value, name, 1, "a positive integer")


def require_nonnegative_int(value, name: str) -> int:
    """``value``, a count that may be 0, as an int; refused as ``require_positive_int`` refuses."""
    return _require_int(value, name, 0, "a non-negative integer")


def require_open_interval(value, name: str, upper: int = 1) -> float:
    """``value`` as a float; outside the open range (0, upper), NaN included: InvalidParameter.

    A bool, Python's or NumPy's, is refused too, as the integer checks refuse it, even where
    ``True`` lies in the range.
    """
    if isinstance(value, (bool, np.bool_)) or not 0.0 < value < upper:
        raise InvalidParameter(f"{name} must lie in (0, {upper}), got {value}")
    return float(value)
