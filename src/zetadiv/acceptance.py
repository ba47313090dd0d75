"""Reproduction of the acceptance criteria, shared by pytest and the CLI.

Each ``criterion_N`` returns (ok, detail); ``run_criterion`` dispatches by
number and prints the standard one-line verdict.  Each criterion builds
its own inputs (divisor tables, quadrature caches).

Criterion 6's running-max slope clause is implemented exactly as stated
and fails on honest data at this height range; see the known-red
paragraph under "Install and test" in README.md for the measurement
analysis.  Everything else passes at the stated tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .divisor import (delta, delta_grid, delta_star, delta_star_alternating,
                      delta_via_psi, divisor_sum, hyperbola_divisor_sum, sieve_divisors)
from .error_terms import (E_atkinson, E_balasubramanian, E_direct, empirical_exponent,
                          estar_scan, fit_log_cubic, moment_scan_from_samples,
                          short_interval_ms)
from .exppairs import ExponentPair, search_optimal
from .voronoi import voronoi_delta, voronoi_delta_star
from .zeta import TWO_PI, chi_factor, z_function, zeta_abs2_grid, zeta_em

THIRD = Fraction(1, 3)


def criterion_1() -> tuple[bool, str]:
    """Exact exponent goldens of the pair calculus."""
    std = ExponentPair(Fraction(1, 2), Fraction(1, 2))
    hux = ExponentPair(Fraction(11, 30), Fraction(16, 30))
    ok = (std.theta_div == THIRD
          and hux.theta_div == Fraction(27, 82)
          and std.theta_zeta == Fraction(1, 6)
          and std.beats_one_third is False
          and hux.beats_one_third is True)
    detail = (f"theta_div: {std.theta_div}, {hux.theta_div}; "
              f"theta_zeta: {std.theta_zeta}; improvement flags "
              f"{std.beats_one_third}/{hux.beats_one_third}")
    return ok, detail


def criterion_2() -> tuple[bool, str]:
    """Divisor identity suite on [1, 1e7]."""
    table = sieve_divisors(10**7)
    rng = np.random.default_rng(112)
    mismatches = sum(
        1 for x in rng.integers(1, 10**7 + 1, 1000)
        if divisor_sum(table, int(x)) != hyperbola_divisor_sum(int(x)))
    xs = np.exp(np.linspace(np.log(10), np.log(1e7), 500))
    worst = max(abs(delta(table, float(x)).delta - delta_via_psi(float(x)))
                for x in xs)
    worst_rel = 0.0
    for x in rng.uniform(1.0, 10**7 / 4.0, 100):
        a = delta_star(table, float(x))
        b = delta_star_alternating(table, float(x))
        worst_rel = max(worst_rel, abs(a - b) / max(1.0, abs(a)))
    grid = np.exp(np.linspace(np.log(16), np.log(1e7), 4000))
    slope = empirical_exponent(grid, delta_grid(table, grid))
    ok = (mismatches == 0 and worst <= 5.0 and worst_rel <= 1e-9
          and 0.2 <= slope <= 0.34)
    detail = (f"hyperbola mismatches={mismatches}, max|delta - psi route|="
              f"{worst:.4f} (<=5), delta* forms rel={worst_rel:.2e} (<=1e-9), "
              f"dyadic slope={slope:.4f} (in [0.2, 0.34])")
    return ok, detail


def _median_residuals(table, fn, ref, Ns):
    # medians over a fixed 17-point ensemble just above 1e4 (odd multiples
    # of 1/34, clear of the jump sets of both remainders): the pointwise
    # truncation error oscillates, only its size decays, so a single
    # abscissa cannot witness the decay
    xs = 1e4 + (2 * np.arange(17) + 1) / 34.0
    med = [float(np.median([abs(fn(table, float(x), N).value - ref(float(x)))
                            for x in xs])) for N in Ns]
    slope = float(np.polyfit(np.log(Ns), np.log(med), 1)[0])
    return med, slope


def criterion_3() -> tuple[bool, str]:
    """Truncated-expansion convergence for both remainders at x ~ 1e4."""
    table = sieve_divisors(10**5)
    Ns = [100, 1000, 10000]
    med, slope = _median_residuals(table, voronoi_delta,
                                   lambda x: delta(table, x).delta, Ns)
    med_s, slope_s = _median_residuals(table, voronoi_delta_star,
                                       lambda x: delta_star(table, x), Ns)
    ok = (med[0] > med[1] > med[2] and med[2] <= 10.0 and -0.8 <= slope <= -0.2
          and med_s[0] > med_s[1] > med_s[2] and med_s[2] <= 10.0
          and -0.8 <= slope_s <= -0.2)
    detail = (f"delta residuals {[f'{m:.3f}' for m in med]} slope {slope:.3f}; "
              f"delta* residuals {[f'{m:.3f}' for m in med_s]} slope {slope_s:.3f}")
    return ok, detail


def criterion_4() -> tuple[bool, str]:
    """Critical-line evaluator against the Euler-Maclaurin oracle."""
    rng = np.random.default_rng(408)
    worst = 0.0
    for t in rng.uniform(10.0, 2000.0, 200):
        zf = abs(z_function(float(t)))
        oracle = abs(zeta_em(0.5 + 1j * float(t),
                             terms=math.ceil(1.75 * t) + 50, correction_order=20))
        worst = max(worst, abs(zf - oracle) / oracle)
    sign_ok = (z_function(14.0) * z_function(14.2) < 0
               and z_function(20.9) * z_function(21.1) < 0)
    worst_chi = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-0.5, 1.5), rng.uniform(1.0, 60.0))
        worst_chi = max(worst_chi, abs(chi_factor(s) * chi_factor(1 - s) - 1.0))
    ok = worst <= 1e-6 and sign_ok and worst_chi <= 1e-9
    # the reflection figure is rounding noise: print its decade bound only
    chi_decade = math.ceil(math.log10(max(worst_chi, 2.0**-52)))
    detail = (f"|Z| vs oracle worst rel={worst:.2e} (<=1e-6), zero brackets="
              f"{sign_ok}, chi reflection worst<=1e{chi_decade} (<=1e-9)")
    return ok, detail


def criterion_5() -> tuple[bool, str]:
    """Three-formula consistency for E(T): C = max |E_direct - E_other| / log^2 T."""
    table = sieve_divisors(6000)
    c, rows = 0.0, []
    for T in (100.0, 300.0, 1000.0, 3000.0, 5000.0):
        ed, ea, eb = E_direct(T), E_atkinson(T, table=table).value, E_balasubramanian(T)
        l2 = math.log(T) ** 2
        c = max(c, abs(ed - ea) / l2, abs(ed - eb) / l2)
        rows.append(f"T={T:.0f}: {ed:+.2f}/{ea:+.2f}/{eb:+.2f}")
    return c <= 20.0, f"fitted C = {c:.4f} (<= 20); " + "; ".join(rows)


def subconvexity_scan() -> tuple[np.ndarray, np.ndarray]:
    """Adaptive grid on [10, 1e5] and the running max of |zeta| t^(-1/6)."""
    segs = []
    lo = 10.0
    while lo < 1e5:
        hi = min(lo * 2, 1e5)
        step = min(0.5, TWO_PI / (8.0 * max(math.log(hi / TWO_PI), 1.0)))
        segs.append(np.arange(lo, hi, step))
        lo = hi
    ts = np.concatenate(segs)
    scaled = np.sqrt(zeta_abs2_grid(ts)) * ts ** (-1.0 / 6.0)
    return ts, np.maximum.accumulate(scaled)


def criterion_6() -> tuple[bool, str]:
    """Subconvexity witness: top-decade slope clause plus short-interval bound.

    The slope clause is expected to fail honestly: the scaled sup still
    carries the log-factor growth at these heights, and the genuine large
    value near t = 77404 (cross-checked against the oracle) lifts the
    top-decade regression to ~0.056 against the stated 0.02.
    """
    ts, run = subconvexity_scan()
    top = ts >= 1e4
    slope = float(np.polyfit(np.log(ts[top]), np.log(run[top]), 1)[0])
    slope_ok = slope <= 0.02
    vals = {}
    for T in (1e4, 1e5):
        G = T ** (1.0 / 3.0)
        vals[T] = short_interval_ms(T, G) / (G * math.log(T))
    growth = vals[1e5] / vals[1e4] - 1.0
    short_ok = growth <= 0.50
    detail = (f"running-max top-decade slope = {slope:.4f} (<= 0.02: {slope_ok}); "
              f"short-interval C0 = {vals[1e4]:.4f} -> {vals[1e5]:.4f}, "
              f"growth {100 * growth:.2f}% (<= 50%: {short_ok})")
    return slope_ok and short_ok, detail


def criterion_7(tmax: float = 2e4) -> tuple[bool, str]:
    """E* moment suite on [0, tmax] at grid step 0.25."""
    scan = estar_scan(tmax, 0.25)
    ok = True
    details = []
    moments = {k: moment_scan_from_samples(scan.t, scan.E_star, k) for k in (2, 4, 5)}
    for k, (_, _, _, ratio) in moments.items():
        spread = float(np.max(ratio[-4:]) / np.min(ratio[-4:]))
        ok = ok and spread <= 10.0
        details.append(f"k={k} top-4 spread {spread:.2f}")
    _, rel = fit_log_cubic(*moments[2][:2])
    cubic_worst = float(np.max(rel[-4:]))
    ok = ok and cubic_worst <= 0.10
    details.append(f"cubic fit top-4 residual {100 * cubic_worst:.2f}%")
    m = scan.t >= 10
    frac = float(np.mean(np.abs(scan.E_star[m])
                         < np.maximum(np.abs(scan.E[m]),
                                      np.abs(scan.delta_star_scaled[m]))))
    details.append(f"|E*| smaller on {100 * frac:.1f}% of grid (logged only)")
    return ok, f"[0, {tmax:g}] step 0.25: " + "; ".join(details)


def criterion_8() -> tuple[bool, str]:
    """Process-word search sanity and exhaustive invariants."""
    best = [search_optimal(depth).best.theta_div for depth in range(11)]
    monotone = all(deeper <= shallower for shallower, deeper in zip(best, best[1:]))
    beats = best[10] < THIRD
    res12 = search_optimal(12)
    invariants = all(0 <= p.kappa <= Fraction(1, 2) <= p.lam <= 1
                     for p in res12.frontier)
    ok = monotone and beats and invariants
    detail = (f"depth-10 best theta_div = {best[10]} (< 1/3: {beats}); "
              f"monotone: {monotone}; depth-12 invariants on {res12.explored} "
              f"pairs: {invariants}")
    return ok, detail


CRITERIA = {n: globals()[f"criterion_{n}"] for n in range(1, 9)}


def run_criterion(num: int, **kwargs) -> bool:
    ok, detail = CRITERIA[num](**kwargs)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok
