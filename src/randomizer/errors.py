"""Exception types shared across the package."""


class RandomizerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(RandomizerError, ValueError):
    """Matrix input violates a structural contract (non-finite, not Hermitian, not unitary)."""


class InvalidDimension(RandomizerError, ValueError):
    """Dimension or count argument is not a positive integer."""


class InvalidParameter(RandomizerError, ValueError):
    """Scalar parameter outside its documented domain."""


class DimensionMismatch(RandomizerError, ValueError):
    """Operands live in different dimensions."""


class NumericalFailure(RandomizerError, RuntimeError):
    """A numerical routine failed to converge or exhausted its retries."""


class NetInfeasible(InvalidParameter):
    """Requested net exceeds the desk-scale size ceiling."""


class ParseError(RandomizerError, ValueError):
    """Persisted file is malformed or carries the wrong schema."""
