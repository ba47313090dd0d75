import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetadiv import (E_atkinson, E_balasubramanian, E_direct, E_grid,
                     InvalidArgumentError, OutOfRangeError, PrecisionError, PrecisionWarning,
                     ResourceLimitError, ZetaMeanSquare, delta_via_psi,
                     empirical_exponent, estar_scan, hyperbola_divisor_sum,
                     short_interval_ms, theta1, voronoi_delta)
from zetadiv.divisor import main_term
from zetadiv.error_terms import (ATKINSON_A, ATKINSON_A_PRIME, _gl_pieces,
                                 _panel_count, atkinson_e, atkinson_f,
                                 atkinson_n_prime, moment_scan_from_samples,
                                 smooth_window)
from zetadiv.zeta import SCAN_RS_MIN_T, TWO_PI, zeta_abs2_grid


def test_E_direct_vanishes_at_small_T():
    assert E_direct(0.0) == 0.0
    assert E_direct(-0.0) == 0.0
    assert abs(E_direct(0.001)) < 0.05


def simpson(a: float, b: float, npan: int) -> float:
    """Independent oracle: composite Simpson of |zeta|^2 on [a, b], npan (even) panels."""
    ys = zeta_abs2_grid(np.linspace(a, b, npan + 1))
    return float((b - a) / (3 * npan)
                 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def test_E_direct_step_halving_agreement():
    # independent Simpson sums at step 0.05 and 0.025 agree with each other
    # and with the cached E_direct(100)
    t = 100.0
    e = E_direct(t)
    vals = [simpson(0.0, t, int(round(t / step))) - TWO_PI * main_term(t / TWO_PI)
            for step in (0.05, 0.025)]
    assert abs(vals[0] - vals[1]) <= 0.1
    assert abs(e - vals[1]) <= 0.1


def test_E_direct_additivity():
    # [0, T2] equals [0, T1] plus an independently integrated [T1, T2]
    t1, t2 = 150.0, 300.0
    ms = ZetaMeanSquare()
    i1 = ms.integral(t1)
    i2 = ms.integral(t2)
    assert abs((i2 - i1) - simpson(t1, t2, 8192)) < 0.01


def test_shared_gl_samples_match_separate_grids():
    # extend_to integrates a chunk group in one batched call; each piece's
    # value must have the same bits as integrating that piece on its own,
    # below, across and above the Euler-Maclaurin / Riemann-Siegel seam at
    # t = 200 (the Euler-Maclaurin cut below the seam is fixed)
    T = 300.0
    assert T > SCAN_RS_MIN_T
    ms = ZetaMeanSquare()
    ms.extend_to(T)
    n = round(T / ms.chunk)
    m = _panel_count(ms.chunk, T)
    # one chunk group at one panel count
    assert m == 1 and n <= 4096
    vals, worst = _gl_pieces(ms.chunk * np.arange(n), ms.chunk, m, zeta_abs2_grid)
    cum = [0.0]
    for v in vals.tolist():
        cum.append(cum[-1] + v)
    assert ms._cum.tolist() == cum
    assert ms._err.tolist() == [worst * k for k in range(n + 1)]
    for starts, m in ((ms.chunk * np.arange(n), 1), (1e4 + 0.25 * np.arange(8), 3)):
        batched, _ = _gl_pieces(starts, 0.25, m, zeta_abs2_grid)
        alone = [_gl_pieces(starts[i:i + 1], 0.25, m, zeta_abs2_grid)[0][0]
                 for i in range(starts.size)]
        assert batched.tolist() == alone


def test_mean_square_cache_holds_two_floats_per_chunk():
    # two float64 arrays hold 16 bytes per chunk; Python lists of floats held 65.5
    E_direct(2e4)  # warm: every lazy table and import is in place
    tracemalloc.start()
    try:
        ms = ZetaMeanSquare()
        ms.extend_to(2e4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 40 * round(2e4 / ms.chunk)


def test_panel_count_non_decreasing_in_t():
    # extend_to integrates a group of chunks at the panel count of its last
    # chunk; that count must be the largest any chunk of the group needs
    bs = np.geomspace(1.0, 1e12, 2000)
    for chunk in (0.1, 0.25, 1.0, 7.3):
        counts = [_panel_count(chunk, float(b)) for b in bs]
        assert all(x <= y for x, y in zip(counts, counts[1:])), chunk
        # each panel spans at most 2.5 radians of the phase log(t/(2 pi))
        assert all(chunk / m * math.log(max(b / TWO_PI, math.e)) <= 2.5 + 1e-12
                   for m, b in zip(counts, bs))


def gl16_split(a: float, b: float, weight=np.ones_like, joints=()) -> float:
    """Reference integral of weight |zeta|^2 on [a, b]: GL16 on 0.25-pieces also
    split at the integrand's jumps (t = 200 and every 2 pi K^2) and at the
    weight's joints, one vectorised call."""
    ks = np.arange(math.ceil(math.sqrt(a / TWO_PI)), math.floor(math.sqrt(b / TWO_PI)) + 1)
    cuts = np.unique(np.r_[np.arange(a, b, 0.25), b, TWO_PI * ks * ks, SCAN_RS_MIN_T, joints])
    cuts = cuts[(cuts >= a) & (cuts <= b)]
    x, w = np.polynomial.legendre.leggauss(16)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    ts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    ys = weight(ts) * zeta_abs2_grid(ts.ravel()).reshape(ts.shape)
    return float(np.sum(ys * (0.5 * (hi - lo) * w)))


@pytest.mark.parametrize("t0", [192.1, 250.0, 5000.0, 19000.0])
def test_audit_estimate_bounds_window_error(t0):
    # 64 pieces, one stride of the audit; the piece [199.85, 200.1] holds the
    # route seam and [19006.5, 19006.75] the length change at 2 pi 55^2
    starts = t0 + 0.25 * np.arange(64)
    vals, worst = _gl_pieces(starts, 0.25, _panel_count(0.25, t0 + 16.0), zeta_abs2_grid)
    ref = gl16_split(t0, t0 + 16.0)
    # below ~1e-12 both sides are rounding: allow 16 ulp of the window integral
    assert abs(float(np.sum(vals)) - ref) <= 64 * worst + 16 * 2.0**-52 * abs(ref)


def test_E_direct_meets_default_tol_at_3e4():
    # the audit estimate stays within 0.01, far inside E_DIRECT_TOL = 0.1
    assert ZetaMeanSquare().error_estimate(3e4) <= 0.01


@pytest.mark.parametrize("call", [
    lambda: E_direct(1e300),
    lambda: ZetaMeanSquare(1e17).extend_to(1e18),
    lambda: short_interval_ms(1e18, 1e17),
], ids=["E_direct-chunks", "extend_to-nodes", "short_interval_ms-nodes"])
def test_quadrature_caps(call):
    # chunk and node counts are checked before anything is allocated
    with pytest.raises(ResourceLimitError, match="cap"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ZetaMeanSquare(chunk=math.nan),
    lambda: ZetaMeanSquare(chunk=math.inf),
    lambda: ZetaMeanSquare().extend_to(math.nan),
    lambda: ZetaMeanSquare().integral(math.inf),
    lambda: E_direct(math.nan),
    lambda: E_grid(math.nan),
    lambda: E_grid(300.0, math.nan),
    lambda: estar_scan(math.inf),
    lambda: short_interval_ms(math.inf, 5.0),
    lambda: short_interval_ms(1e4, math.nan),
])
def test_quadrature_rejects_non_finite(call):
    with pytest.raises(InvalidArgumentError):
        call()


def test_stepwise_extension_matches_one_call():
    # steps put the 4096-chunk group boundaries elsewhere than one call does
    stepped = ZetaMeanSquare()
    for T in (500.0, 1234.5, 2000.0):
        stepped.extend_to(T)
    fresh = ZetaMeanSquare()
    fresh.extend_to(2000.0)
    n = round(2000.0 / fresh.chunk)
    assert n > 4096
    a, b = stepped._cum, fresh._cum
    assert a.size == b.size == n + 1
    assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b))


def test_E_direct_validation():
    with pytest.raises(InvalidArgumentError):
        E_direct(-1.0)


def test_atkinson_amplitude_near_one():
    T = 1e6
    assert abs(float(atkinson_e(T, 1)) - 1.0) <= 5.0 / T


def test_atkinson_phase_expansion():
    # exact phase minus its leading expansion isolates the cubic-root term
    T, n = 1e6, 10
    lead = -math.pi / 4 + 2 * math.sqrt(TWO_PI * n * T)
    predicted = math.sqrt(2 * math.pi**3) * n**1.5 / (6.0 * math.sqrt(T))
    diff = float(atkinson_f(T, n)) - lead
    assert 0.5 * predicted <= diff <= 2.0 * predicted


def test_atkinson_cutoffs(table_small):
    T = 1000.0
    np_ = atkinson_n_prime(T, T)
    assert 0 < np_ < T / TWO_PI
    ev = E_atkinson(T, table=table_small)
    assert ev.N == T and abs(ev.N_prime - np_) < 1e-12
    assert ev.value == ev.sigma1 + ev.sigma2
    with pytest.raises(InvalidArgumentError):
        E_atkinson(T, N=T / 4, table=table_small)  # below A*T
    with pytest.raises(InvalidArgumentError):
        E_atkinson(T, N=3 * T, table=table_small)  # above A'*T
    assert (ATKINSON_A, ATKINSON_A_PRIME) == (0.5, 2.0)
    with pytest.raises(OutOfRangeError):
        E_atkinson(2 * table_small.limit, table=table_small)


def test_atkinson_blocked_sums_match_one_array(table_small):
    # the sums run in blocks of n; one unblocked array is the reference
    T = 9e4
    n = np.arange(1, int(T) + 1)
    d = table_small.values[n].astype(np.float64)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    ref = (math.sqrt(2.0) * (T / TWO_PI) ** 0.25 * float(np.sum(
        sign * d * n ** (-0.75) * atkinson_e(T, n) * np.cos(atkinson_f(T, n)))))
    assert abs(E_atkinson(T, table=table_small).sigma1 - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("series", [
    lambda table: E_atkinson(1e6, table=table).value,
    lambda table: voronoi_delta(table, 1e4, 10**6).value,
    lambda table: hyperbola_divisor_sum(10**14),
    lambda table: delta_via_psi(1e14),
    lambda table: E_balasubramanian(1e7),
], ids=["E_atkinson", "voronoi_delta", "hyperbola_divisor_sum", "delta_via_psi",
        "E_balasubramanian"])
def test_series_temporaries_stay_small(traced_peak, table_big, series):
    # 1e6 terms (1e7 for the two sqrt(x) sums, K^2 = 1261^2 pairs for the
    # double sum): one 8-byte array over all terms would take 8-80 MB, so a
    # peak under 1 MB shows the sums run in blocks or rows
    value, peak = traced_peak(lambda: series(table_big))
    assert math.isfinite(value)
    assert peak < 1e6, peak


def balasubramanian_terms(T: float, m: int, n: int) -> tuple[float, float]:
    """The two summands of the double sum at (m, n), m != n, in plain Python."""
    th1 = theta1(T)
    dlog = math.log(T / TWO_PI)
    return (math.sin(T * math.log(n / m)) / (math.sqrt(m * n) * math.log(n / m)),
            math.sin(2 * th1 - T * math.log(m * n))
            / (math.sqrt(m * n) * (dlog - math.log(m * n))))


def brute_force_balasubramanian(T: float) -> float:
    """Independent plain-Python double loop over the two sums and all m != n."""
    K = int(math.sqrt(T / TWO_PI))
    return 2.0 * sum(sum(balasubramanian_terms(T, m, n))
                     for n in range(1, K + 1) for m in range(1, K + 1) if m != n)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(1.0, TWO_PI * 60**2),
                 st.integers(2, 60).map(lambda k: TWO_PI * k * k * (1.0 + 1e-12))))
@example(200.0)
@example(700.0)
def test_balasubramanian_matches_brute_force(T):
    # the second branch lands just above 2 pi k^2, where row k first joins;
    # each of the K^2 terms carries a phase rounding of about T u
    K = int(math.sqrt(T / TWO_PI))
    bound = max(K * K, 1) * T * 2.0**-52
    assert abs(E_balasubramanian(T) - brute_force_balasubramanian(T)) <= bound


def test_balasubramanian_swap_symmetry():
    # both summands are invariant under the (m, n) swap, which lets the sum
    # run over n > m once and count four times
    T = 500.0
    K = int(math.sqrt(T / TWO_PI))
    for m in range(1, K + 1):
        for n in range(m + 1, K + 1):
            for a, b in zip(balasubramanian_terms(T, m, n), balasubramanian_terms(T, n, m)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (m, n)


def test_balasubramanian_K_and_cap():
    T = TWO_PI * 10**4
    assert int(math.sqrt(T / TWO_PI)) == 100
    with pytest.raises(ResourceLimitError):
        E_balasubramanian(1e12)
    with pytest.raises(InvalidArgumentError):
        E_balasubramanian(0.0)
    # K < 2: no pair m != n, so both double sums are empty, down to the
    # smallest double, where theta1 itself is out of range
    assert E_balasubramanian(3.0) == 0.0
    assert E_balasubramanian(TWO_PI * 4.0 * (1.0 - 1e-12)) == 0.0
    assert E_balasubramanian(5e-324) == 0.0


def test_balasubramanian_matches_direct():
    T = 500.0
    assert abs(E_balasubramanian(T) - E_direct(T)) <= 20.0 * math.log(T) ** 2


def test_estar_scan_small_T_consistency(table_small):
    scan = estar_scan(8.0, 0.25, table=table_small)
    assert scan.E_star[0] == 0.0
    # below x = 1/4 the alternating sum is empty: delta* = -main term, so
    # the scaled column follows the smooth closed form
    ts = scan.t[1:3]
    expected = TWO_PI * (-main_term(ts / TWO_PI))
    assert np.allclose(scan.delta_star_scaled[1:3], expected, atol=1e-12)
    assert np.all(scan.E_star == scan.E - scan.delta_star_scaled)


def test_moment_scan_validation():
    ts = np.arange(0, 300.0, 2.0)
    vals = np.ones_like(ts)
    with pytest.raises(InvalidArgumentError):
        moment_scan_from_samples(ts, vals, 3)
    with pytest.warns(PrecisionWarning):
        moment_scan_from_samples(ts, vals, 2)


def test_moment_scan_rejects_non_uniform_grid():
    # checkpoints are read at index round(T/step): the grid must start at 0
    # and keep one spacing
    vals = np.ones(2001)
    with pytest.raises(InvalidArgumentError):
        moment_scan_from_samples(1.0 + 0.25 * np.arange(2001), vals, 2)
    ts = 0.25 * np.arange(2001)
    ts[1000:] += 0.05
    with pytest.raises(InvalidArgumentError):
        moment_scan_from_samples(ts, vals, 2)
    # the rounding of step * arange(n) is far inside the tolerance
    ts = 0.1 * np.arange(200001)
    assert moment_scan_from_samples(ts, np.ones_like(ts), 2)


def test_smooth_window_profiles():
    ts = np.linspace(900.0, 1100.0, 2001)
    w = smooth_window(ts, 1000.0, 50.0)
    assert np.all(w[(ts >= 950.0) & (ts <= 1050.0)] == 1.0)
    assert np.all(w[(ts < 900.0) | (ts > 1100.0)] == 0.0)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_short_interval_window_validation():
    with pytest.raises(InvalidArgumentError):
        short_interval_ms(100.0, 100.0)  # G = T degenerate
    with pytest.raises(InvalidArgumentError):
        short_interval_ms(100.0, 1.0)
    with pytest.raises(PrecisionError):
        short_interval_ms(1e300, 5.0)  # T +- 2G round to T


@pytest.mark.parametrize("T, G", [(1e4, 1e4 ** (1 / 3)), (1000.0, 10.0), (1e5, 1e5 ** (1 / 3)),
                                  (300.0, 60.0)], ids=["1e4", "1e3", "1e5", "seam"])
def test_short_interval_ms_against_gl16(T, G):
    # the exp_bump window written out again, 1 on [T-G, T+G] with collars to
    # T +- 2G; (300, 60) straddles the route seam at t = 200
    def window(ts):
        u = np.minimum(np.maximum(np.abs(ts - T) - G, 0.0) / G, 1.0)
        with np.errstate(divide="ignore"):
            return np.where(u < 1.0, np.exp(1.0 - 1.0 / (1.0 - u * u)), 0.0)
    ref = gl16_split(T - 2 * G, T + 2 * G, window, (T - G, T + G))
    assert abs(short_interval_ms(T, G) - ref) <= 1e-7 * ref


def test_empirical_exponent_synthetic(rng):
    ts = np.exp(rng.uniform(np.log(16), np.log(10**6), 4000))
    slope = empirical_exponent(ts, ts ** 0.31)
    assert abs(slope - 0.31) <= 0.01
    slope0 = empirical_exponent(ts, np.full_like(ts, 2.5))
    assert abs(slope0) <= 0.01
    assert abs(empirical_exponent(ts.tolist(), (ts ** 0.25).tolist()) - 0.25) <= 0.01
    with pytest.raises(InvalidArgumentError):
        empirical_exponent(ts[ts < 200], (ts[ts < 200]) ** 0.3)  # < 8 blocks
    with pytest.raises(InvalidArgumentError):
        empirical_exponent(ts, ts[:-1])


def test_sigma2_soft_log_bound(table_small):
    # the shorter Atkinson sum stays O(log T)-sized; recorded, softly capped
    worst = 0.0
    for T in np.exp(np.linspace(np.log(1e3), np.log(1e5), 12)):
        n_prime = atkinson_n_prime(float(T), float(T))
        if n_prime > table_small.limit:
            break
        ev = E_atkinson(float(T), table=table_small)
        worst = max(worst, abs(ev.sigma2) / math.log(T))
    print(f"observed max |sigma2| / log T = {worst:.3f}")
    assert worst < 50.0


def test_E_grid_matches_pointwise():
    ts, es, err = E_grid(50.0, 0.25)
    assert ts.size == 201
    assert err == ZetaMeanSquare().error_estimate(50.0)  # the audit estimate at tmax
    for idx in (40, 120, 200):
        assert abs(es[idx] - E_direct(float(ts[idx]))) < 1e-9
