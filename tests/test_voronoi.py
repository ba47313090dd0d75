import math

import numpy as np
import pytest

from zetadiv import (E_balasubramanian, InvalidArgumentError, OutOfRangeError,
                     delta, delta_grid, delta_star, delta_star_alternating, delta_star_grid,
                     delta_series_target, delta_star_series_target, delta_via_psi,
                     divisor_sum, hyperbola_divisor_sum, sieve_divisors, theta1,
                     voronoi_delta, voronoi_delta_star)

COEF = 1.0 / (math.pi * math.sqrt(2.0))


def two_term_value(x: float, alternating: bool) -> float:
    """Closed two-term expression (n = 1, 2 with d(1)=1, d(2)=2)."""
    s1 = 1.0 if not alternating else -1.0
    s2 = 2.0
    return COEF * x**0.25 * (
        s1 * math.cos(4 * math.pi * math.sqrt(x) - math.pi / 4)
        + s2 * 2.0 ** (-0.75) * math.cos(4 * math.pi * math.sqrt(2 * x) - math.pi / 4))


def test_two_term_closed_form(table_small):
    x = 1e4
    v = voronoi_delta(table_small, x, 2)
    assert v.term_count == 2
    assert abs(v.value - two_term_value(x, alternating=False)) < 1e-12
    vs = voronoi_delta_star(table_small, x, 2)
    assert abs(vs.value - two_term_value(x, alternating=True)) < 1e-12


def test_validation(table_small):
    with pytest.raises(InvalidArgumentError):
        voronoi_delta(table_small, 1e4, 1)
    with pytest.raises(InvalidArgumentError):
        voronoi_delta(table_small, 1.5, 100)
    with pytest.raises(OutOfRangeError):
        voronoi_delta(table_small, 1e4, table_small.limit + 10)


def test_pointwise_residual_small_at_full_truncation(table_small):
    # off the jump sets, N = x leaves a residual well under 10
    x = 10000.5
    v = voronoi_delta(table_small, x, 10**4)
    assert abs(v.value - delta(table_small, x).delta) <= 10.0
    xs = 1000.125
    vs = voronoi_delta_star(table_small, xs, 10**3)
    assert abs(vs.value - delta_star(table_small, xs)) <= 10.0


def test_summation_order_stability(table_small):
    # reversing the accumulation order moves the value by < 1e-9 relative
    x, N = 1e4, 10**4
    n = np.arange(1, N + 1, dtype=np.float64)
    d = table_small.values[1:N + 1].astype(np.float64)
    terms = COEF * x**0.25 * d * n**(-0.75) * np.cos(
        4 * math.pi * np.sqrt(n * x) - math.pi / 4)
    fwd = voronoi_delta(table_small, x, N).value
    rev = math.fsum(terms[::-1].tolist())
    assert abs(fwd - rev) <= 1e-9 * max(1.0, abs(fwd))


def test_continuity_in_x(table_small, rng):
    # fixed N: steps of 1e-6 in x move the value by far less than 1
    N = 10**4
    for x in rng.uniform(9990.0, 10010.0, 50):
        a = voronoi_delta(table_small, float(x), N).value
        b = voronoi_delta(table_small, float(x) + 1e-6, N).value
        assert abs(a - b) < 1.0


def test_series_target_midpoint_convention(table_small):
    # at integer x the expansion's limit sits half a jump below delta(x)
    x = 10000.0
    t = delta_series_target(table_small, x)
    assert abs(t - (delta(table_small, x).delta - 0.5 * table_small.values[10000])) < 1e-12
    # off the jump set it is delta itself
    assert delta_series_target(table_small, 10000.5) == delta(table_small, 10000.5).delta
    # delta*: jumps live on the quarter-integer lattice 4x = m
    xq = 10000.25
    m = 40001
    ts = delta_star_series_target(table_small, xq)
    expected = delta_star(table_small, xq) - (-1) ** m * 0.25 * table_small.values[m]
    assert abs(ts - expected) < 1e-12
    assert delta_star_series_target(table_small, 10000.1) == delta_star(table_small, 10000.1)


def test_large_N_convergence(table_small):
    # residual at N = 10 x is visibly below the N = x level
    x = 10000.125
    r1 = abs(voronoi_delta(table_small, x, 10**4).value - delta(table_small, x).delta)
    r2 = abs(voronoi_delta(table_small, x, 10**5).value - delta(table_small, x).delta)
    assert r2 < r1


NON_FINITE_CALLS = {
    "delta": lambda t, v: delta(t, v),
    "divisor_sum": lambda t, v: divisor_sum(t, v),
    "hyperbola_divisor_sum": lambda t, v: hyperbola_divisor_sum(v),
    "delta_via_psi": lambda t, v: delta_via_psi(v),
    "delta_star": lambda t, v: delta_star(t, v),
    "delta_star_alternating": lambda t, v: delta_star_alternating(t, v),
    "delta_grid": lambda t, v: delta_grid(t, np.array([v])),
    "delta_star_grid": lambda t, v: delta_star_grid(t, np.array([v])),
    "delta_series_target": lambda t, v: delta_series_target(t, v),
    "delta_star_series_target": lambda t, v: delta_star_series_target(t, v),
    "voronoi_delta-x": lambda t, v: voronoi_delta(t, v, 10),
    "voronoi_delta-N": lambda t, v: voronoi_delta(t, 500.0, v),
    "voronoi_delta_star-x": lambda t, v: voronoi_delta_star(t, v, 10),
    "sieve_divisors": lambda t, v: sieve_divisors(v),
    "E_balasubramanian": lambda t, v: E_balasubramanian(v),
    "theta1": lambda t, v: theta1(v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_raises_invalid_argument(table_small, name, value):
    # neither a bare ValueError, OverflowError or IndexError, nor a nan result
    with pytest.raises(InvalidArgumentError):
        NON_FINITE_CALLS[name](table_small, value)
