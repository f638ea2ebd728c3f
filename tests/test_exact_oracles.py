"""The exact oracles themselves, against closed forms, exact rationals and identities.

``os_exceed`` takes its Poisson-binomial sum in ``decimal``; here it meets
the 40-digit Rohling product for one population, the rational race of
``os_exceed_by_race`` for two and three, and the identities any
order-statistic exceedance obeys.
"""

import pytest
from exact_oracles import (
    OS_RELATIVE_BOUND,
    ca_exceed,
    gm_exceed,
    os_exceed,
    os_exceed_by_race,
    os_pfa_exact,
    relative_error,
)

from cfarkit.analytic import os_threshold

# dyadic inputs, so the floats os_exceed takes are the race's rationals
TWO_POPULATIONS = [
    (0.75, 3, [(3, 10.0), (5, 1.0)]),
    (2.5, 8, [(3, 0.125), (5, 7.0)]),
    (0.0625, 1, [(4, 3.0), (2, 0.5)]),
    (1.5, 5, [(2, 309.0), (6, 1.0)]),
    (0.375, 4, [(2, 4.0), (3, 0.25), (2, 1.0)]),
]


def one_population_designs():
    for n in (2, 8, 16, 32, 64):
        for k in sorted({1, n // 4, n // 2, n - 1, n} - {0}):
            for pfa in (1e-1, 1e-4, 1e-12, 1e-30, 1e-100):
                yield n, k, pfa


def test_one_population_is_rohlings_product():
    # N from 2 to 64, k in {1, N/4, N/2, N-1, N}, Pfa down to 1e-100, where
    # the sum cancels by more than a hundred digits
    for n, k, pfa in one_population_designs():
        tau = os_threshold(pfa, n, k)
        value, rounding = os_exceed(tau, k, [(n, 1.0)])
        assert rounding <= OS_RELATIVE_BOUND
        assert relative_error(value, os_pfa_exact(tau, n, k)) <= 1e-13, (n, k, pfa)


def test_the_case_a_fixed_cutoff_missed():
    # integrating only out to 60 read this 5.1e-7 low: all 32 cells at scale
    # 309, k = 28 and u = 1.03, so tau = 1.03 * 309 up to its rounding
    value, _ = os_exceed(1.03, 28, [(32, 309.0)])
    assert value == pytest.approx(1.897253015706467e-37, rel=1e-13, abs=0.0)
    assert relative_error(value, os_pfa_exact(1.03 * 309.0, 32, 28)) <= 1e-13


@pytest.mark.parametrize("u, k, populations", TWO_POPULATIONS)
def test_several_populations_match_exact_rationals(u, k, populations):
    value, rounding = os_exceed(u, k, populations)
    assert rounding <= OS_RELATIVE_BOUND
    assert value == pytest.approx(float(os_exceed_by_race(u, k, populations)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("u, k, populations", TWO_POPULATIONS)
def test_the_minimum_is_the_total_rate(u, k, populations):
    # the first cell fires at the total rate R = sum n/c: E[exp(-u X_(1))] = R/(R + u)
    rate = sum(n / c for n, c in populations)
    assert os_exceed(u, 1, populations)[0] == pytest.approx(rate / (rate + u), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("u, k, populations", TWO_POPULATIONS)
def test_splitting_or_reordering_groups_changes_nothing(u, k, populations):
    value, _ = os_exceed(u, k, populations)
    assert os_exceed(u, k, populations[::-1])[0] == pytest.approx(value, rel=1e-15, abs=0.0)
    (n, c), *rest = populations
    for part in range(n + 1):
        split = [(part, c), *rest, (n - part, c)]
        assert os_exceed(u, k, split)[0] == pytest.approx(value, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("u", [0.5, 3.0, 1e6])
@pytest.mark.parametrize("c", [1.0, 2.0, 309.0])
def test_one_cell_is_the_same_for_every_statistic(u, c):
    # the sum, the order statistic and the geometric mean of one cell are that cell
    expect = 1.0 / (1.0 + u * c)
    assert ca_exceed(u, [(1, c)]) == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert os_exceed(u, 1, [(1, c)])[0] == pytest.approx(expect, rel=1e-15, abs=0.0)
    value, rounding = gm_exceed(u, [(1, c)])
    assert value == pytest.approx(expect, rel=1e-13 + rounding, abs=0.0)


@pytest.mark.parametrize("k", [0, 9])
def test_order_index_outside_the_window_is_refused(k):
    with pytest.raises(ValueError, match="outside 1..8"):
        os_exceed(1.0, k, [(3, 2.0), (5, 1.0), (0, 7.0)])
