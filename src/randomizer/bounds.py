"""Closed-form calculators for sample-size requirements and failure probabilities.

The two absolute constants are fixed: the concentration exponent
c = 1/(6 ln 2) and the sample-size prefactor C = 150. All probability bounds
are computed in the log domain; the prefactor (25/epsilon)^(4d) overflows
every floating format long before the regimes these formulas describe, so
only logs are ever stored. Bounds above 1 are vacuous but reported as-is.
"""

from __future__ import annotations

import math

from .errors import (InvalidParameter, require_nonnegative_int, require_open_interval,
                     require_positive_int)

CONCENTRATION_EXPONENT = 1.0 / (6.0 * math.log(2.0))  # c, in natural-log units
SAMPLE_SIZE_PREFACTOR = 150.0  # C


def _finite(formula, what: str, d: int, epsilon: float) -> float:
    """``formula()``; overflow, division by an underflowed zero or a non-finite value raise."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameter(f"{what} is not a finite number at d={d}, epsilon={epsilon!r}")
    return value


def required_N(d: int, epsilon: float) -> int:
    """ceil(C d / epsilon^2 * ln(1/epsilon)), floored at 1; InvalidParameter if not finite.

    The log is natural: the constant c is expressed in natural-log units, and
    a different base only rescales C.
    """
    d = require_positive_int(d, "dimension")
    epsilon = require_open_interval(epsilon, "epsilon")
    raw = _finite(lambda: SAMPLE_SIZE_PREFACTOR * d / (epsilon * epsilon) * math.log(1.0 / epsilon),
                  "required N", d, epsilon)
    return max(1, math.ceil(raw))


def concentration_tail_bound(delta: float, n: int) -> float:
    """Tail bound 2 exp(-c delta^2 n) for the pair statistic at radius delta/d.

    n = 0 is allowed for reporting and yields the vacuous value 2.
    """
    require_open_interval(delta, "delta")
    n = require_nonnegative_int(n, "n")
    return math.exp(math.log(2.0) - CONCENTRATION_EXPONENT * delta * delta * n)


def failure_log_bound(d: int, epsilon: float, n: int) -> float:
    """Natural log of the failure bound 2 (25/epsilon)^(4d) exp(-c epsilon^2 n / 25).

    Stays meaningful at dimensions where the bound itself would overflow.
    n = 0 is allowed and always gives a positive (vacuous) value.
    """
    d = require_positive_int(d, "dimension")
    epsilon = require_open_interval(epsilon, "epsilon")
    n = require_nonnegative_int(n, "n")
    return (math.log(2.0) + 4.0 * d * math.log(25.0 / epsilon)
            - CONCENTRATION_EXPONENT * epsilon * epsilon * n / 25.0)


def min_N_for_success(d: int, epsilon: float) -> int:
    """Smallest N that drives the failure log-bound strictly below zero.

    Bisects from n > 25 (ln 2 + 4 d ln(25/epsilon)) / (c epsilon^2), which
    must be finite, else InvalidParameter; the float evaluation of
    failure_log_bound is non-increasing in n, so N is exactly minimal under
    it, also past 2^53, where consecutive n share one float value.
    """
    d = require_positive_int(d, "dimension")
    epsilon = require_open_interval(epsilon, "epsilon")
    threshold = _finite(lambda: 25.0 * (math.log(2.0) + 4.0 * d * math.log(25.0 / epsilon))
                        / (CONCENTRATION_EXPONENT * epsilon * epsilon),
                        "the N of min_N_for_success", d, epsilon)
    lo, hi = 0, max(1, math.floor(threshold) + 1)  # the bound is positive at n = 0
    while failure_log_bound(d, epsilon, hi) >= 0.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if failure_log_bound(d, epsilon, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return hi
