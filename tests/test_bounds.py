import math

import pytest

from randomizer import (
    CONCENTRATION_EXPONENT,
    SAMPLE_SIZE_PREFACTOR,
    InvalidDimension,
    InvalidParameter,
    concentration_tail_bound,
    failure_log_bound,
    min_N_for_success,
    required_N,
)


def success_constant_ratio(d: int, epsilon: float) -> float:
    """The prefactor min_N_for_success / (d / epsilon^2 * ln(1/epsilon)) demands."""
    return min_N_for_success(d, epsilon) / (d / (epsilon * epsilon) * math.log(1.0 / epsilon))


def test_fixed_constants():
    assert CONCENTRATION_EXPONENT == 1.0 / (6.0 * math.log(2.0))
    assert CONCENTRATION_EXPONENT == pytest.approx(0.2404491, abs=1e-7)
    assert SAMPLE_SIZE_PREFACTOR == 150.0


def test_required_n_reference_value():
    # ceil(150 * 2 / 0.25 * ln 2) = ceil(831.7766...)
    assert required_N(2, 0.5) == 832
    assert required_N(2, 0.5) == math.ceil(150.0 * 2 / 0.25 * math.log(2.0))


def test_required_n_near_one_epsilon():
    raw = 150.0 * 1 / (0.99 ** 2) * math.log(1 / 0.99)
    assert required_N(1, 0.99) == max(1, math.ceil(raw))
    assert required_N(1, 0.999) >= 1


def test_required_n_validation():
    with pytest.raises(InvalidParameter):
        required_N(2, 0.0)
    with pytest.raises(InvalidParameter):
        required_N(2, 1.0)
    with pytest.raises(InvalidDimension):
        required_N(0, 0.5)


@pytest.mark.parametrize("epsilon", [1e-300, 1e-160])
def test_non_finite_sample_sizes_raise(epsilon):
    # epsilon^2 underflows to 0 at 1e-300 and to a subnormal at 1e-160, where
    # both sample sizes overflow
    for calculator in (required_N, min_N_for_success):
        with pytest.raises(InvalidParameter, match="not a finite number"):
            calculator(2, epsilon)


@pytest.mark.parametrize("epsilon", [1e-20, 1e-100])
def test_min_n_is_minimal_beyond_exact_floats(epsilon):
    # N lies far beyond 2^53, where consecutive integers share a float value
    n = min_N_for_success(2, epsilon)
    assert n > 2 ** 53
    assert failure_log_bound(2, epsilon, n) < 0.0
    assert failure_log_bound(2, epsilon, n - 1) >= 0.0


def test_concentration_tail_values():
    assert concentration_tail_bound(0.5, 0) == pytest.approx(2.0, abs=1e-15)
    direct = 2.0 * math.exp(-CONCENTRATION_EXPONENT * 0.25 * 100)
    assert concentration_tail_bound(0.5, 100) == pytest.approx(direct, rel=1e-12)
    assert concentration_tail_bound(0.5, 100) == pytest.approx(4.90e-3, rel=1e-2)


def test_concentration_tail_monotone():
    for n1, n2 in [(0, 10), (10, 100), (100, 1000)]:
        assert concentration_tail_bound(0.4, n2) < concentration_tail_bound(0.4, n1)
    for d1, d2 in [(0.1, 0.2), (0.2, 0.5), (0.5, 0.9)]:
        assert concentration_tail_bound(d2, 50) < concentration_tail_bound(d1, 50)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", -1, None])
def test_sample_count_must_be_a_non_negative_integer(n):
    with pytest.raises(InvalidDimension):
        concentration_tail_bound(0.5, n)
    with pytest.raises(InvalidDimension):
        failure_log_bound(2, 0.5, n)


def test_failure_log_bound_vacuous_at_zero():
    for d in (1, 2, 50, 10_000):
        assert failure_log_bound(d, 0.5, 0) > 0.0


def test_failure_log_bound_linear_in_n():
    c = CONCENTRATION_EXPONENT
    a = failure_log_bound(3, 0.4, 100)
    b = failure_log_bound(3, 0.4, 5100)
    assert a - b == pytest.approx(c * 0.16 * 5000 / 25.0, rel=1e-12)


def test_failure_log_bound_survives_huge_dimension():
    # the bound itself overflows; its log stays finite
    value = failure_log_bound(10 ** 9, 0.3, 10 ** 12)
    assert math.isfinite(value)


def test_min_n_reference_value():
    # direct solve: n > 25 (ln 2 + 8 ln 50) / (c / 4)
    threshold = 25.0 * (math.log(2.0) + 8.0 * math.log(50.0)) / (CONCENTRATION_EXPONENT * 0.25)
    assert min_N_for_success(2, 0.5) == math.floor(threshold) + 1 == 13304


def test_min_n_minimality_contract():
    for d in (1, 2, 7, 30, 100):
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            n = min_N_for_success(d, eps)
            assert failure_log_bound(d, eps, n) < 0.0
            assert failure_log_bound(d, eps, n - 1) >= 0.0


def test_min_n_monotone_in_dimension():
    values = [min_N_for_success(d, 0.5) for d in range(1, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_success_constant_ratio_reported():
    # the effective prefactor at moderate epsilon sits far above C = 150 and
    # decreases toward small epsilon
    r_mid = success_constant_ratio(10_000, 0.5)
    r_small = success_constant_ratio(10_000, 0.01)
    assert r_mid > 150.0
    assert r_small < r_mid
    assert r_mid == pytest.approx(
        min_N_for_success(10_000, 0.5) / (10_000 / 0.25 * math.log(2.0)), rel=1e-12
    )


def test_ratio_limit_matches_default_prefactor():
    # the epsilon -> 0 prefactor of the un-relaxed chain is 36 * 6 ln 2 < 150,
    # which is what makes 150 a safe default constant asymptotically
    c = CONCENTRATION_EXPONENT
    limit = 36.0 / c
    assert limit == pytest.approx(149.72, abs=0.01)
    assert limit < SAMPLE_SIZE_PREFACTOR

    def tight_prefactor(eps):
        delta = eps / (3.0 + 2.0 * eps)
        return 4.0 * math.log(5.0 / delta) / (c * delta * delta) * eps * eps / math.log(1.0 / eps)

    values = [tight_prefactor(10.0 ** -k) for k in (4, 8, 16, 32, 64)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # convergence is logarithmic: prefactor = (36/c) (1 + ln 15 / ln(1/eps)) + O(eps)
    expected_tail = limit * (1.0 + math.log(15.0) / math.log(10.0 ** 64))
    assert values[-1] == pytest.approx(expected_tail, rel=1e-3)
