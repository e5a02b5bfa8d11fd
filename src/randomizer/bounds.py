"""Closed-form calculators for sample-size requirements and failure probabilities.

All probability bounds are computed in the log domain; the prefactor
(25/epsilon)^(4d) overflows every floating format long before the regimes
these formulas describe, so only logs are ever stored. Bounds above 1 are
vacuous but reported as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, require_positive_int


@dataclass(frozen=True)
class BoundConstants:
    """The two absolute constants: concentration exponent c and sample-size prefactor C."""

    c: float = 1.0 / (6.0 * math.log(2.0))
    C: float = 150.0

    def __post_init__(self):
        if not (self.c > 0.0 and self.C > 0.0):
            raise InvalidParameter("constants c and C must be positive")


DEFAULT_CONSTANTS = BoundConstants()


def _require_epsilon(epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in (0, 1), got {epsilon}")
    return float(epsilon)


def required_N(d: int, epsilon: float, consts: BoundConstants = DEFAULT_CONSTANTS) -> int:
    """ceil(C d / epsilon^2 * ln(1/epsilon)), floored at 1.

    The log is natural: the constant c is expressed in natural-log units, and
    a different base only rescales C.
    """
    d = require_positive_int(d, "dimension")
    epsilon = _require_epsilon(epsilon)
    raw = consts.C * d / (epsilon * epsilon) * math.log(1.0 / epsilon)
    return max(1, math.ceil(raw))


def concentration_tail_bound(delta: float, n: int,
                             consts: BoundConstants = DEFAULT_CONSTANTS) -> float:
    """Tail bound 2 exp(-c delta^2 n) for the pair statistic at radius delta/d.

    n = 0 is allowed for reporting and yields the vacuous value 2.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    if n < 0:
        raise InvalidParameter(f"n must be nonnegative, got {n}")
    return math.exp(math.log(2.0) - consts.c * delta * delta * n)


def failure_log_bound(d: int, epsilon: float, n: int,
                      consts: BoundConstants = DEFAULT_CONSTANTS) -> float:
    """Natural log of the failure bound 2 (25/epsilon)^(4d) exp(-c epsilon^2 n / 25).

    Stays meaningful at dimensions where the bound itself would overflow.
    n = 0 is allowed and always gives a positive (vacuous) value.
    """
    d = require_positive_int(d, "dimension")
    epsilon = _require_epsilon(epsilon)
    if n < 0:
        raise InvalidParameter(f"n must be nonnegative, got {n}")
    return (math.log(2.0) + 4.0 * d * math.log(25.0 / epsilon)
            - consts.c * epsilon * epsilon * n / 25.0)


def min_N_for_success(d: int, epsilon: float,
                      consts: BoundConstants = DEFAULT_CONSTANTS) -> int:
    """Smallest N that drives the failure log-bound strictly below zero.

    Solved directly from n > 25 (ln 2 + 4 d ln(25/epsilon)) / (c epsilon^2),
    then nudged so minimality holds under the exact float evaluation of
    failure_log_bound.
    """
    d = require_positive_int(d, "dimension")
    epsilon = _require_epsilon(epsilon)
    threshold = 25.0 * (math.log(2.0) + 4.0 * d * math.log(25.0 / epsilon)) \
        / (consts.c * epsilon * epsilon)
    n = max(1, math.floor(threshold) + 1)
    while failure_log_bound(d, epsilon, n, consts) >= 0.0:
        n += 1
    while n > 1 and failure_log_bound(d, epsilon, n - 1, consts) < 0.0:
        n -= 1
    return n
