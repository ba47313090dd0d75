import decimal
import functools
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetadiv import (E_atkinson, E_balasubramanian, E_direct, E_grid,
                     InvalidArgumentError, OutOfRangeError, PrecisionError, PrecisionWarning,
                     ResourceLimitError, ZetaMeanSquare, delta_via_psi,
                     empirical_exponent, estar_scan, hyperbola_divisor_sum,
                     short_interval_ms, voronoi_delta)
from zetadiv import _workers, error_terms
from zetadiv.divisor import SUM_BLOCK, main_term
from zetadiv.error_terms import (ATKINSON_A, ATKINSON_A_PRIME, _gl_pieces,
                                 _panel_count, atkinson_e, atkinson_f,
                                 atkinson_n_prime, moment_scan_from_samples,
                                 smooth_window, write_columns_csv)
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
    i1, i2 = (E_direct(t) + TWO_PI * main_term(t / TWO_PI) for t in (t1, t2))
    assert abs((i2 - i1) - simpson(t1, t2, 8192)) < 0.01


@settings(max_examples=2, deadline=None)
@given(st.integers(1, 8000))
@example(800)
@example(4097)
def test_E_direct_is_a_point_of_the_quarter_grid(estar_2e4, k):
    # at T = k/4, E_direct is the point k of any longer grid at step 0.25,
    # bit for bit: across the route seam (k = 800) and the 4096-chunk group
    # seam of the cumulative sum
    T = 0.25 * k
    assert E_direct(T) == E_grid(T, 0.25)[1][-1] == estar_2e4.E[k]


@settings(max_examples=3, deadline=None)
@given(st.floats(0.01, 300.0))
@example(123.4567)
def test_E_direct_off_the_quarter_grid(T):
    # off the multiples of 0.25, E_direct is the last point of ceil(T/0.25)
    # equal chunks of [0, T], and agrees with Simpson at step below 0.05
    # (to 2e-6 below t = 200; above it both straddle the route seam's jump
    # in |zeta|^2, and they differed by up to 2.9e-5)
    assume(T % 0.25 != 0.0)
    n = math.ceil(T / 0.25)
    ts, es, _ = E_grid(T, T / n)
    assert ts.size == n + 1 and abs(ts[-1] - T) <= 1e-12 * T
    assert E_direct(T) == es[-1]
    ref = simpson(0.0, T, 2 * math.ceil(T / 0.1)) - TWO_PI * main_term(T / TWO_PI)
    assert abs(es[-1] - ref) <= 1e-4


def test_E_direct_gate_has_no_growth_history(monkeypatch):
    # each call gates on its own grid's audit estimate (1.655e-3 at 1000):
    # earlier calls at 100 and 300 do not lower it, as they would on one
    # cache grown by them (4.54e-4 at 1000)
    monkeypatch.setattr("zetadiv.error_terms.E_DIRECT_TOL", 1e-3)
    E_direct(100.0)
    E_direct(300.0)
    with pytest.raises(PrecisionError, match="1.655e-03"):
        E_direct(1000.0)


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


def test_mean_square_cache_holds_two_floats_per_chunk(estar_2e4):
    # two float64 arrays hold 16 bytes per chunk; Python lists of floats held
    # 65.5.  The session's scan to 2e4 has put every lazy table and import in place
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
    lambda: E_direct(math.inf),
    lambda: E_direct(math.nan),
    lambda: E_grid(math.nan),
    lambda: E_grid(300.0, math.nan),
    lambda: estar_scan(math.inf),
    lambda: short_interval_ms(math.inf, 5.0),
    lambda: short_interval_ms(1e4, math.nan),
    lambda: ZetaMeanSquare().error_estimate(-1.0),
    # a negative T once indexed the cache from its end: _err[-4], near T = 99
    lambda: (ms := ZetaMeanSquare()).extend_to(100.0) or ms.error_estimate(-1.0),
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


@pytest.fixture(scope="module")
def one_call_integrator():
    """A quadrature cache grown to 1300 in one extend_to call."""
    ms = ZetaMeanSquare()
    ms.extend_to(1300.0)
    return ms


@settings(max_examples=6)
@given(st.lists(st.floats(0.0, 1300.0), min_size=1, max_size=4))
def test_integral_does_not_depend_on_extend_sequence(one_call_integrator, steps):
    # any sequence of extend_to calls, shrinking ones (no-ops) included,
    # leaves the cumulative integral bit for bit as one call does; 1300 is
    # past 4096 chunks of 0.25, so the sequence moves the group seams
    stepped = ZetaMeanSquare()
    for step in steps:
        stepped.extend_to(step)
    cum = stepped._cum
    assert cum.tobytes() == one_call_integrator._cum[:cum.size].tobytes()


def sequential_quadrature(chunk: float, steps) -> tuple[np.ndarray, np.ndarray]:
    """The cache's two arrays after extend_to(T) for each T in steps, built
    group by group in one thread with a Python running sum."""
    cum, err = [0.0], [0.0]
    for T in steps:
        k, need = len(cum) - 1, math.ceil(T / chunk)
        for lo in range(k, need, 4096):
            hi = min(need, lo + 4096)
            vals, worst = _gl_pieces(chunk * np.arange(lo, hi), chunk,
                                     _panel_count(chunk, hi * chunk), zeta_abs2_grid)
            for j, v in enumerate(vals.tolist(), 1):
                cum.append(cum[-1] + v)
                err.append(err[lo] + worst * j)
    return np.array(cum), np.array(err)


@pytest.mark.parametrize("chunk, steps", [
    (0.25, [1300.0]),            # 5,200 chunks: two groups, across the seam at t = 200
    (0.25, [500.0, 1300.0]),     # the second call starts from a cached prefix
    (0.0625, [1300.0]),          # six groups, more than the threads
])
def test_worker_count_does_not_change_bits(monkeypatch, chunk, steps):
    # groups are integrated in any order by any thread, then summed in chunk
    # order: every worker count gives the single-threaded running sum's bits.
    # A short switch interval interleaves the threads often; a group taken
    # twice or skipped would leave a slot wrong
    ref_cum, ref_err = sequential_quadrature(chunk, steps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            ms = ZetaMeanSquare(chunk)
            for T in steps:
                ms.extend_to(T)
            assert ms._cum.tobytes() == ref_cum.tobytes(), workers
            assert ms._err.tobytes() == ref_err.tobytes(), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 3])
def test_failing_group_leaves_cache_unchanged(monkeypatch, workers):
    # the cache holds [0, 200]; the new chunks form groups [800, 4896) and
    # [4896, 5200).  In one thread the second group raises; with helpers the
    # calling thread's group waits (at most 10 s) until the helper's group
    # has raised, so the error comes from the helper thread
    ms = ZetaMeanSquare()
    ms.extend_to(200.0)
    cum, err = ms._cum.tobytes(), ms._err.tobytes()
    failed = threading.Event()

    def failing(ts):
        in_helper = threading.current_thread() is not threading.main_thread()
        if in_helper or (workers == 1 and np.min(ts) >= 4896 * 0.25):
            failed.set()
            raise PrecisionError("group failed")
        if workers > 1:
            failed.wait(10.0)
        return zeta_abs2_grid(ts)

    monkeypatch.setattr(_workers, "WORKERS", workers)
    monkeypatch.setattr(error_terms, "zeta_abs2_grid", failing)
    threads = threading.active_count()
    with pytest.raises(PrecisionError, match="group failed"):
        ms.extend_to(1300.0)
    assert failed.is_set()
    assert threading.active_count() == threads
    assert ms._cum.tobytes() == cum and ms._err.tobytes() == err


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_helper_threads_move_beside_the_caller(monkeypatch):
    # each helper pins itself, not the process: the calling thread's CPUs
    # stay as they were
    caller_cpus = os.sched_getaffinity(0)
    target = {min(caller_cpus)}
    seen = set()

    def recording(ts):
        if threading.current_thread() is not threading.main_thread():
            seen.add(frozenset(os.sched_getaffinity(0)))
        return zeta_abs2_grid(ts)

    monkeypatch.setattr(_workers, "WORKERS", 3)
    monkeypatch.setattr(_workers, "cpus_beside_caller", lambda: target)
    monkeypatch.setattr(error_terms, "zeta_abs2_grid", recording)
    ZetaMeanSquare(0.0625).extend_to(1300.0)
    assert seen == {frozenset(target)}
    assert os.sched_getaffinity(0) == caller_cpus


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


def test_atkinson_bits_pinned(table_big):
    # amplitude and phase share one x, sqrt(x) and arsinh(sqrt(x)); the
    # values are those of the two factors formed separately
    assert E_atkinson(1e6, table=table_big).value == -102.1173340795893
    assert E_atkinson(12345.6, table=table_big).value == 36.18446391597601


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


PI_40 = decimal.Decimal("3.141592653589793238462643383279502884197")


@functools.lru_cache
def two_theta1_mod_two_pi(T: float) -> float:
    """2 theta1(T) = T log(T/(2 pi)) - T - pi/4 mod 2 pi, at 40 digits, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = decimal.Decimal(T)
        return float((t * (t / (2 * PI_40)).ln() - t - PI_40 / 4) % (2 * PI_40))


def balasubramanian_terms(T: float, m: int, n: int) -> tuple[float, float]:
    """The two summands of the double sum at (m, n), m != n, in plain Python."""
    dlog = math.log(T / TWO_PI)
    return (math.sin(T * math.log(n / m)) / (math.sqrt(m * n) * math.log(n / m)),
            math.sin(two_theta1_mod_two_pi(T) - T * math.log(m * n))
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


def test_balasubramanian_against_mpmath():
    # the double sum at 25 digits (K = 109, 5886 pairs n > m); the sum errs
    # by 2.0e-12 here, 5000 times inside the gate (by 8.7e-11 with every
    # phase formed in double)
    mpmath = pytest.importorskip("mpmath")
    T = 75000.0
    with mpmath.workdps(25):
        t = mpmath.mpf(T)
        K = int(math.sqrt(T / TWO_PI))
        logs = [mpmath.log(n) for n in range(1, K + 1)]
        log_t = mpmath.log(t / (2 * mpmath.pi))
        two_th1 = t * log_t - t - mpmath.pi / 4
        ref = 4 * mpmath.fsum(
            (mpmath.sin(t * (logs[n] - logs[m])) / (logs[n] - logs[m])
             + mpmath.sin(two_th1 - t * (logs[n] + logs[m])) / (log_t - logs[n] - logs[m]))
            / mpmath.sqrt((m + 1) * (n + 1))
            for m in range(K) for n in range(m + 1, K))
    assert abs(E_balasubramanian(T) - float(ref)) <= 1e-8


def test_balasubramanian_against_exact_phases():
    # an independent route at T = 5e6 (K = 892): every phase T log n and
    # 2 theta1 reduced mod 2 pi at 40 digits, then each row summed directly
    # over sin(a_n - a_m) and sin(2 theta1 - a_m - a_n).  The sum errs by
    # 5.6e-11 here; by 3.6e-9 with 2 theta1 formed in double, by 2.7e-8 with
    # T fl(log n) reduced exactly and by 7.2e-8 with every phase in double
    T = 5e6
    K = int(math.sqrt(T / TWO_PI))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a = np.array([float(decimal.Decimal(T) * decimal.Decimal(k).ln() % (2 * PI_40))
                      for k in range(1, K + 1)])
    two_th1 = two_theta1_mod_two_pi(T)
    n = np.arange(1.0, K + 1.0)
    logn, rsn, log_t = np.log(n), 1.0 / np.sqrt(n), math.log(T / TWO_PI)
    ref = 4.0 * sum(
        rsn[m] * np.sum(rsn[m + 1:] * (
            np.sin(a[m + 1:] - a[m]) / (logn[m + 1:] - logn[m])
            + np.sin(two_th1 - a[m] - a[m + 1:]) / (log_t - logn[m] - logn[m + 1:])))
        for m in range(K - 1))
    assert abs(E_balasubramanian(T) - ref) <= 1e-9


def test_phase_reduction_against_mpmath(rng):
    # T log n mod 2 pi for every n <= 4000 at T = 1e8 + a draw: the lo part
    # of log1p on the mantissa bounds the error by 2.5e-18 T = 2.5e-10 (the
    # largest is 2.07e-18 T; T fl(log n) reduced exactly errs by up to 8.9e-16 T)
    mpmath = pytest.importorskip("mpmath")
    T = 1e8 + float(rng.uniform(0.0, 1e6))
    n = np.arange(1.0, 4001.0)
    got = error_terms._t_log_mod_two_pi(T, n)
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        want = [mpmath.mpf(T) * mpmath.log(int(k)) for k in n]
        err = [float((mpmath.mpf(g) - w + mpmath.pi) % two_pi - mpmath.pi)
               for g, w in zip(got, want)]
    assert np.max(np.abs(got)) < 4.0 * math.pi + 4.0
    assert max(map(abs, err)) <= 2.5e-18 * T


@pytest.mark.parametrize("tile", [1, 5000, 2**20], ids=["one_row", "uneven", "one_tile"])
def test_balasubramanian_tile_seams(monkeypatch, tile):
    # T = 1e6 has K = 398: one row per tile, tiles of 12 rows and more that
    # do not divide K - 1 = 397, and one tile of every row against the
    # default; only the order of the additions moves
    T = 1e6
    default = E_balasubramanian(T)
    monkeypatch.setattr(error_terms, "_BALASU_TILE_PAIRS", tile)
    assert abs(E_balasubramanian(T) - default) <= 1e-12 * abs(default)


def test_estar_scan_small_T_consistency(table_small):
    scan = estar_scan(8.0, 0.25, table=table_small)
    assert scan.E_star[0] == 0.0
    # below x = 1/4 the alternating sum is empty: delta* = -main term, so
    # the scaled column follows the smooth closed form
    ts = scan.t[1:3]
    expected = TWO_PI * (-main_term(ts / TWO_PI))
    assert np.allclose(scan.delta_star_scaled[1:3], expected, atol=1e-12)
    assert np.all(scan.E_star == scan.E - scan.delta_star_scaled)


@settings(max_examples=6)
@given(st.floats(1.0, 3000.0), st.sampled_from((0.25, 0.5, 1.0)))
def test_estar_scan_is_E_minus_scaled_delta_star(table_small, tmax, step):
    # E_star is E - 2 pi delta*(t/(2 pi)) bit for bit, and the delta* column
    # is the alternating divisor sum read from np.cumsum of the signed
    # table, also bit for bit
    scan = estar_scan(tmax, step, table=table_small)
    assert scan.E_star.tobytes() == (scan.E - scan.delta_star_scaled).tobytes()
    n = np.arange(table_small.limit + 1)
    alt = np.cumsum(np.where(n % 2 == 0, 1, -1) * table_small.values)
    x = scan.t[1:] / TWO_PI
    ref = TWO_PI * (0.5 * alt[np.floor(4 * x).astype(np.int64)] - main_term(x))
    assert scan.delta_star_scaled[0] == 0.0
    assert scan.delta_star_scaled[1:].tobytes() == ref.tobytes()


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
    assert moment_scan_from_samples(ts, np.ones_like(ts), 2)[0][-1] == 2.0 ** 14


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


def hafner_ivic_G(T: float, table) -> float:
    """G(T) in Hafner & Ivic's integral_0^T E(t) dt = pi T + G(T) + O(T^(1/4))
    (J. Number Theory 32, 1989), with the exact ar-sinh amplitude, cutoffs
    N = T and N' = atkinson_n_prime(T, T)."""
    n = np.arange(1, math.floor(T) + 1)
    x = math.pi * n / (2.0 * T)
    s1 = np.sum(np.where(n % 2 == 0, 1.0, -1.0) * table.values[n] * n ** -0.5
                * np.arcsinh(np.sqrt(x)) ** -2 * (T / (TWO_PI * n) + 0.25) ** -0.25
                * np.sin(atkinson_f(T, n)))
    m = np.arange(1, math.floor(atkinson_n_prime(T, T)) + 1)
    lg = np.log(T / (TWO_PI * m))
    s2 = np.sum(table.values[m] * m ** -0.5 / lg ** 2 * np.sin(T * lg - T + math.pi / 4.0))
    return float(2.0 ** -1.5 * s1 - 2.0 * s2)


def test_hafner_ivic_integral_of_E(estar_2e4, table_small):
    # the whole E grid against an explicit formula for its integral: a bias
    # of 2e-3 in E moves the integral to 2e4 by 40, against a gate of 17.8
    # there (residuals today -0.35 at 500 to -15.5 at 2e4, peak 1.31 T^(1/4))
    es = estar_2e4.E
    cum = np.concatenate([[0.0], np.cumsum((es[1:] + es[:-1]) * 0.125)])
    for T in (500.0, 1e3, 2e3, 5e3, 1e4, 1.5e4, 2e4):
        residual = cum[round(T / 0.25)] - math.pi * T - hafner_ivic_G(T, table_small)
        assert abs(residual) <= 1.5 * T ** 0.25, (T, residual)


#: CSV cells where repr switches to and from exponent notation, and the non-finite ones
CSV_SPECIALS = np.array([0.0, -0.0, 5e-324, -1e300, np.inf, -np.inf, np.nan, 0.1, 1e-05,
                         9.999999999999999e-05, 1e16, 123456789012345.6])


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 2 * SUM_BLOCK + 1])
def test_write_columns_csv_blocks_match_one_shot(tmp_path, rng, n):
    # rows on both sides of each 4096-row block seam, against the whole
    # table formatted row by row with Python's shortest round-trip repr
    cols = (0.25 * np.arange(n), rng.standard_normal(n), np.resize(CSV_SPECIALS, n))
    path = tmp_path / "cols.csv"
    write_columns_csv(path, "a,b,c", cols)
    rows = zip(*(col.tolist() for col in cols))
    ref = "a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_bytes() == ref.encode()


def test_write_columns_csv_in_bounded_memory(tmp_path, rng, traced_peak):
    # estar-scan's 80,001 x 4 table at tmax = 2e4: one 4096-row block is
    # formatted at a time (9.8 MiB when every column was listed at once)
    cols = tuple(rng.standard_normal(80_001) for _ in range(4))
    path = tmp_path / "big.csv"
    _, peak = traced_peak(lambda: write_columns_csv(path, "t,E,delta_star,E_star", cols))
    assert peak < 2 * 2**20, peak
    with open(path) as fh:
        assert sum(1 for _ in fh) == 80_002


@pytest.mark.parametrize("n", [0, 1, 4096, 4097, 3 * SUM_BLOCK + 5])
def test_write_columns_csv_worker_count_does_not_change_bytes(monkeypatch, tmp_path, rng, forks,
                                                             assert_reaped, n):
    # with three workers the caller formats every third block and two forked
    # workers the rest; the caller writes them in block order, and every
    # worker has been reaped when the call returns
    cols = (0.25 * np.arange(n), rng.standard_normal(n), np.resize(CSV_SPECIALS, n))
    out = {}
    for workers in (1, 3):
        monkeypatch.setattr(_workers, "WORKERS", workers)
        path = tmp_path / f"w{workers}.csv"
        write_columns_csv(path, "a,b,c", cols)
        out[workers] = path.read_bytes()
        assert len(forks) == max(min(workers, -(-n // SUM_BLOCK)) - 1, 0)
        assert_reaped(forks)
    assert out[3] == out[1]


@pytest.mark.parametrize("failure, error", [("raise", PrecisionError),
                                            ("exit", ChildProcessError),
                                            ("hang", PrecisionError)])
def test_failing_csv_worker_raises_and_leaves_no_child(monkeypatch, tmp_path, forks,
                                                       assert_reaped, failure, error):
    # the sieve's contract: a worker whose body raises sends its own
    # exception, one that dies without a word is a ChildProcessError.  In the
    # "hang" case the caller raises (here at block 1, received from the
    # worker that raised) while the other worker sleeps 30 s over block 2,
    # and kills it, so no worker outlives the call
    caller, block = os.getpid(), error_terms._csv_block

    def failing(columns, row, lo):
        if os.getpid() != caller:
            if failure == "exit":
                os._exit(3)
            if failure == "hang" and lo == 2 * SUM_BLOCK:
                time.sleep(30.0)
            raise PrecisionError("block failed")
        return block(columns, row, lo)

    monkeypatch.setattr(_workers, "WORKERS", 3)
    monkeypatch.setattr(error_terms, "_csv_block", failing)
    start = time.monotonic()
    with pytest.raises(error):
        write_columns_csv(tmp_path / "x.csv", "a", (np.arange(3 * SUM_BLOCK + 5.0),))
    assert time.monotonic() - start < 10.0
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("lengths", [(4096, 5000), (5000, 4097)])
def test_write_columns_csv_refuses_unequal_columns(tmp_path, lengths):
    # before, (4096, 5000) silently dropped 904 values and (5000, 4097)
    # raised after 4096 rows, leaving a partial file
    path = tmp_path / "x.csv"
    with pytest.raises(InvalidArgumentError, match="equal lengths"):
        write_columns_csv(path, "a,b", tuple(np.zeros(n) for n in lengths))
    assert not path.exists()
