"""Exception types shared across the package, and the one check of integer counts."""

import numbers


class RandomizerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(RandomizerError, ValueError):
    """Matrix input violates a structural contract (non-finite, not Hermitian, not unitary)."""


class InvalidParameter(RandomizerError, ValueError):
    """Scalar parameter outside its documented domain."""


class InvalidDimension(InvalidParameter):
    """Dimension or count argument is not a positive integer."""


class DimensionMismatch(RandomizerError, ValueError):
    """Operands live in different dimensions."""


class NumericalFailure(RandomizerError, RuntimeError):
    """A numerical routine failed to converge or exhausted its retries."""


class NetInfeasible(InvalidParameter):
    """Requested net exceeds the desk-scale size ceiling."""


class ParseError(RandomizerError, ValueError):
    """Persisted file is malformed or carries the wrong schema."""


def require_positive_int(value, name: str) -> int:
    """``value``, a dimension or a count, as an int; not a positive integer: InvalidDimension.

    A bool, a float (even a whole one) and a string are refused, never truncated or cast.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidDimension(f"{name} must be a positive integer, got {value!r}")
    return int(value)
