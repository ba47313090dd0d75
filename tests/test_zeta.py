import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetadiv import (InvalidArgumentError, OutOfRangeError, PrecisionError, ResourceLimitError,
                     chi_factor, convexity_exponent, rs_term_count, rs_theta, rs_z_grid, theta1,
                     z_function, zeta_abs2_grid, zeta_em)
from zetadiv import zeta
from zetadiv.zeta import (EM_MAX_TERMS, RS_BLOCK_MIN_K, RS_CROSSOVER_T, RS_PHASE_ERR_MAX,
                          SCAN_RS_MIN_T, THETA_SERIES_MIN_T, TWO_PI, _log_gamma, _main_sum_loop,
                          _phase_rounding_envelope)

try:
    import mpmath
    HAVE_MPMATH = True
except ImportError:  # pragma: no cover
    HAVE_MPMATH = False


def em_z(t: float) -> float:
    """Oracle Z(t) from the Euler-Maclaurin route with strengthened parameters."""
    val = np.exp(1j * rs_theta(t)) * zeta_em(0.5 + 1j * t,
                                             terms=math.ceil(1.75 * t) + 50,
                                             correction_order=20)
    assert abs(val.imag) < 1e-9 * (1.0 + abs(val))
    return float(val.real)


# ---------------------------------------------------------------------------
# theta phases
# ---------------------------------------------------------------------------

def test_theta1_closed_values():
    # log term vanishes at T = 2 pi
    assert abs(theta1(TWO_PI) - (-math.pi - math.pi / 8)) < 1e-12
    expected = 2 * math.pi * math.log(2) - 2 * math.pi - math.pi / 8
    assert abs(theta1(4 * math.pi) - expected) < 1e-12


def test_theta1_domain():
    with pytest.raises(InvalidArgumentError):
        theta1(0.0)
    with pytest.raises(InvalidArgumentError):
        theta1(-3.0)


def test_theta1_stable_at_large_T():
    T = 1e9
    v = theta1(T)
    assert math.isfinite(v)
    assert abs(v - (0.5 * T * math.log(T / TWO_PI) - 0.5 * T - math.pi / 8)) == 0.0


def test_rs_theta_matches_theta1_asymptotically():
    # the exact phase exceeds the leading form by 1/(48 T) + O(T^-3)
    for T in (100.0, 1000.0, 10000.0):
        diff = rs_theta(T) - theta1(T)
        assert abs(diff - 1.0 / (48.0 * T)) < 1e-5 / T, T


# ---------------------------------------------------------------------------
# chi factor
# ---------------------------------------------------------------------------

def test_chi_poles_and_special_points():
    with pytest.raises(InvalidArgumentError):
        chi_factor(1.0)
    with pytest.raises(InvalidArgumentError):
        chi_factor(3.0)
    # even integers s >= 2 come straight out of the Gamma ratio
    assert abs(chi_factor(2.0) - (-2 * math.pi**2)) < 1e-9
    # zeta(2) = chi(2) zeta(-1) with zeta(-1) = -1/12
    assert abs(chi_factor(2.0) * (-1.0 / 12.0) - math.pi**2 / 6) < 1e-9
    assert chi_factor(-2.0) == 0.0  # trivial zero
    assert abs(chi_factor(-1.0) * zeta_em(2.0) - zeta_em(-1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 2.0), st.floats(0.5, 80.0), st.booleans())
@example(0.3, 7.0, False)
def test_chi_reflection_and_conjugation_property(x, y, lower):
    s = complex(x, -y if lower else y)
    chi = chi_factor(s)
    assert abs(chi * chi_factor(1 - s) - 1.0) <= 1e-13, s
    assert abs(chi_factor(s.conjugate()) - chi.conjugate()) <= 4 * np.spacing(abs(chi)), s


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_chi_against_mpmath(rng):
    # pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2) at 30 digits, on the property's
    # range and at real points, even integers s >= 2 included
    ss = np.concatenate([rng.uniform(-1.0, 2.0, 200)
                         + 1j * rng.choice([-1.0, 1.0], 200) * rng.uniform(0.5, 80.0, 200),
                         [-3.5, -1.0, 0.5, 2.0, 4.0, 6.0, 2.5 + 0.0j]])
    with mpmath.workdps(30):
        for s in ss:
            sm = mpmath.mpc(s.real, s.imag)
            ref = complex(mpmath.pi ** (sm - 0.5) * mpmath.gamma((1 - sm) / 2)
                          / mpmath.gamma(sm / 2))
            assert abs(chi_factor(s) - ref) <= 1e-13 * abs(ref), s


def test_chi_on_critical_line_matches_theta(rng):
    # chi(1/2+it) = e^{-2 i theta(t)}; both sides round phases of size ~t log t.
    # |chi| = 1 to the ulp: the two log Gamma arguments are conjugates
    ts = np.r_[np.exp(rng.uniform(math.log(TWO_PI), math.log(1e4), 400)), 10, 100, 1000, 5000]
    for t in ts:
        chi = chi_factor(0.5 + 1j * t)
        assert abs(chi - np.exp(-2j * rs_theta(t))) <= 5e-11, t
        assert abs(abs(chi) - 1.0) <= 2.0**-51, t


# ---------------------------------------------------------------------------
# Euler-Maclaurin oracle
# ---------------------------------------------------------------------------

def test_zeta_em_classical_values():
    assert abs(zeta_em(2.0) - math.pi**2 / 6) <= 1e-12
    assert abs(zeta_em(0.5) - (-1.4603545088095868)) <= 1e-10
    assert abs(zeta_em(-1.0) - (-1.0 / 12.0)) <= 1e-12


def test_zeta_em_parameter_independence():
    for t in (500.0, 1200.0, 2000.0):
        s = 0.5 + 1j * t
        a = zeta_em(s)
        b = zeta_em(s, terms=math.ceil(2.1 * t) + 40, correction_order=20)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), t


def test_zeta_em_functional_equation_residual():
    s = 0.25 + 30j
    r = zeta_em(s) - chi_factor(s) * zeta_em(1 - s)
    assert abs(r) <= 1e-8


def test_zeta_em_pole_and_validation():
    with pytest.raises(InvalidArgumentError):
        zeta_em(1.0)
    with pytest.raises(InvalidArgumentError):
        zeta_em(2.0, terms=1)
    with pytest.raises(InvalidArgumentError):
        zeta_em(2.0, correction_order=0)
    # the exact Bernoulli table stops at order 20, the highest any caller uses
    assert abs(zeta_em(2.0, correction_order=20) - math.pi**2 / 6) <= 1e-12
    with pytest.raises(InvalidArgumentError):
        zeta_em(2.0, correction_order=21)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_zeta_em_against_mpmath():
    mpmath.mp.dps = 30
    for s in (0.5 + 14.1j, 0.5 + 777j, 0.25 + 30j, -0.5 + 77j, 0.9 + 1500j):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(zeta_em(s) - ref) <= 1e-9 * max(1.0, abs(ref)), s


# ---------------------------------------------------------------------------
# Riemann-Siegel engine and the production Z
# ---------------------------------------------------------------------------

def test_rs_term_count_exact_square():
    assert rs_term_count(TWO_PI * 10**4) == 100


def test_rs_main_sum_term_count_boundary():
    # just below the square the count drops by one
    assert rs_term_count(TWO_PI * 10**4 * (1 - 1e-9)) == 99


def test_z_real_phase_rotation(rng):
    # e^{i theta(t)} zeta(1/2+it) lands on the real axis: a joint check of
    # the log-Gamma phase and the zeta evaluation
    for t in rng.uniform(10, 2000, 25):
        w = np.exp(1j * rs_theta(float(t))) * zeta_em(0.5 + 1j * float(t))
        assert abs(w.imag) < 1e-10 * (1.0 + abs(w)), t


@settings(max_examples=40)
@given(st.floats(0.0, 2.0 * RS_CROSSOVER_T))
@example(0.0)
@example(9.9)
@example(RS_CROSSOVER_T - 0.5)
@example(RS_CROSSOVER_T + 0.5)
def test_z_function_domain(t):
    # Z is even (theta is odd, zeta(1/2-it) the conjugate of zeta(1/2+it)):
    # every finite t is in the domain, and -t gives the same bits on both
    # routes, Euler-Maclaurin below the crossover and Riemann-Siegel above
    assert z_function(-t) == z_function(t)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_z_function_small_t_against_siegelz():
    # below t = 10 the rotated Euler-Maclaurin route (log-Gamma phase) is
    # oracle-grade too: 3.8e-15 measured on these points
    with mpmath.workdps(30):
        for t in np.linspace(0.0, 10.0, 208):
            assert abs(z_function(t) - float(mpmath.siegelz(t))) <= 1e-14, t


@pytest.mark.parametrize("s, terms", [(0.5 + 1e9j, None), (2.0, 2**40)],
                         ids=["default-cut-at-1e9", "terms-2-40"])
def test_zeta_em_term_cap(traced_peak, s, terms):
    # a direct sum past EM_MAX_TERMS (9.7 GiB of logs at t = 1e9) is
    # refused before anything is allocated; the cap itself still runs
    def call():
        with pytest.raises(ResourceLimitError, match="cap"):
            zeta_em(s, terms=terms)

    _, peak = traced_peak(call)
    assert peak < 2**20, peak
    assert abs(zeta_em(2.0, terms=EM_MAX_TERMS) - math.pi**2 / 6) <= 1e-12


def test_first_two_zero_brackets():
    # criterion 4 checks Z's sign changes on these brackets; bisect with the
    # independent oracle to locate the first two critical-line zeros
    for lo, hi, known in ((14.0, 14.2, 14.134725), (20.9, 21.1, 21.022040)):
        a, b = lo, hi
        fa = em_z(a)
        for _ in range(40):
            mid = 0.5 * (a + b)
            fm = em_z(mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        assert abs(root - known) < 1e-4, (lo, hi, root)


def test_rs_vs_em_error_envelope(rng):
    # pure Riemann-Siegel against the oracle obeys the ~0.06 t^(-5/4)
    # envelope of the truncated correction series (and is useless-tight
    # nowhere in this range: both corrections on)
    ts = np.sort(rng.uniform(250, 2000, 50))
    zrs = rs_z_grid(ts)
    for t, zr in zip(ts, zrs):
        err = abs(zr - em_z(float(t)))
        assert err <= 2.0 * 0.053 * t ** (-1.25), (t, err)


def test_rs_strict_agreement_above_crossover():
    for t in (8000.0, 12000.0, 20000.0):
        assert t > RS_CROSSOVER_T
        zf = z_function(t)  # RS route above the crossover
        err = abs(abs(zf) - abs(em_z(t)))
        assert err <= 1e-6 * max(1.0, abs(zf)), (t, err)


def test_rs_z_grid_validation():
    with pytest.raises(OutOfRangeError):
        rs_z_grid(np.array([3.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_t_raises(bad):
    with pytest.raises(InvalidArgumentError):
        rs_theta(bad)
    with pytest.raises(InvalidArgumentError):
        rs_theta(np.array([100.0, bad]))
    with pytest.raises(InvalidArgumentError):
        rs_z_grid(np.array([100.0, bad]))
    with pytest.raises(InvalidArgumentError):
        z_function(bad)
    with pytest.raises(InvalidArgumentError):
        zeta_em(complex(0.5, bad))


def test_rs_z_grid_phase_rounding_cap():
    # README's envelope is an empty sum at K = 1 and crosses the cap
    # between t = 2e9 and 2.2e9
    assert _phase_rounding_envelope(10.0) == 0.0
    assert _phase_rounding_envelope(2e9) < RS_PHASE_ERR_MAX < _phase_rounding_envelope(2.2e9)
    with pytest.raises(PrecisionError):
        rs_z_grid(np.array([100.0, 2.2e9]))
    with pytest.raises(PrecisionError):
        z_function(1e300)


def test_rs_z_grid_k_runs_bit_identical(rng):
    # a shuffled grid across the K = 20 / 21 boundary, plus a lone K = 25
    # point: each K run gives the same bits as a grid of that K alone, as
    # the sorted grid, and as one-point grids
    edge = TWO_PI * 21**2
    ts = np.concatenate([rng.uniform(edge - 30.0, edge + 30.0, 200), [TWO_PI * 25.5**2]])
    shuffled = rng.permutation(ts)
    z = rs_z_grid(shuffled)
    kk = np.floor(np.sqrt(shuffled / TWO_PI)).astype(int)
    assert set(kk) == {20, 21, 25}
    for K in (20, 21, 25):
        assert np.array_equal(z[kk == K], rs_z_grid(shuffled[kk == K])), K
    order = np.argsort(shuffled)
    assert np.array_equal(z[order], rs_z_grid(shuffled[order]))
    for i in range(0, ts.size, 20):
        assert z[i] == rs_z_grid(shuffled[i:i + 1])[0], shuffled[i]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(TWO_PI, TWO_PI * 199.9**2), min_size=2, max_size=40), st.data())
def test_rs_z_grid_commutes_with_permutation_and_reshape(ts, data):
    # loop runs (K < 200) give each point its own bits: a permuted grid gives
    # the permuted values and a reshaped grid the reshaped ones
    ts = np.array(ts)
    z = rs_z_grid(ts)
    perm = np.array(data.draw(st.permutations(range(ts.size))))
    assert np.array_equal(rs_z_grid(ts[perm]), z[perm])
    rows = data.draw(st.sampled_from([d for d in range(1, ts.size + 1) if ts.size % d == 0]))
    assert np.array_equal(rs_z_grid(ts.reshape(rows, -1)), z.reshape(rows, -1))


def test_rs_z_grid_keeps_input_shape():
    # a 0-d and a 2-d input each give the 1-d result in the input's shape
    flat = np.array([1000.0, 1000.5, 2345.0, 7000.25, 300.0, 5e4])
    z = rs_z_grid(flat)
    zero_d = rs_z_grid(1000.0)
    assert zero_d.shape == () and zero_d == z[0]
    two_d = rs_z_grid(flat.reshape(2, 3))
    assert two_d.shape == (2, 3) and np.array_equal(two_d.ravel(), z)
    assert rs_z_grid(np.zeros((0, 3))).shape == (0, 3)


def test_rs_z_grid_temporaries_scale_with_one_run(traced_peak):
    # 200k sorted points in 52 K runs: beyond the output and the K index,
    # only one run's temporaries are alive at a time
    ts = 200.0 + 0.1 * np.arange(200_000)
    z, peak = traced_peak(lambda: rs_z_grid(ts))
    assert z.shape == ts.shape
    assert peak <= 3 * z.nbytes, peak / z.nbytes


@pytest.fixture()
def block_calls(monkeypatch):
    """Count the K runs that take the kernel as a grid of one offset, 0; returns their sizes."""
    calls = []
    kernel = zeta._grid_sums

    def counted(grid, size, row_terms):
        if grid[3].size == 1 and grid[3][0] == 0.0:
            calls.append(size)
        return kernel(grid, size, row_terms)

    monkeypatch.setattr(zeta, "_grid_sums", counted)
    return calls


def loop_z(ts, monkeypatch):
    """rs_z_grid with every K run on the per-term loop, the in-repo oracle."""
    with monkeypatch.context() as m:
        m.setattr(zeta, "RS_BLOCK_MIN_K", 2**62)
        return rs_z_grid(ts)


def assert_within_envelope(z, ref, ts):
    # README's phase-rounding envelope at each point, its sum taken once per
    # K run; the truncation terms of the two routes are the same code
    t = np.ravel(ts)
    kk = np.floor(np.sqrt(t / TWO_PI)).astype(int)
    tol = np.empty_like(t)
    for K in np.unique(kk).tolist():
        tol[kk == K] = phase_rounding_term(t[kk == K], K)
    assert np.all(np.abs(np.ravel(z) - np.ravel(ref)) <= tol), float(np.max(np.abs(z - ref)))


def phase_rounding_term(t, K: int):
    """README's rounding term 2u t sum_{2<=n<=K} log(n)/sqrt(n), u = 2^-53, at float or array t."""
    n = np.arange(2, K + 1)
    return 2.0 * 2.0 ** -53 * t * float(np.sum(np.log(n) / np.sqrt(n)))


@settings(max_examples=40, deadline=None)
@given(st.floats(200.0, 1e7), st.floats(1e-3, 1.0), st.integers(2, 3000))
@example(1e7, 1.0, 3000)
@example(200.0, 1e-3, 2)
@example(200.0, 0.29013512067197816, 1435)
@example(TWO_PI * 400.5**2, 0.0147, 2 * 256 + 17)
@example(TWO_PI * 200.5**2, 0.01, 2 * 128 * 256 + 300)
def test_block_kernel_matches_loop_on_progressions(t0, h, m):
    # the kernel's recurrence-built phase tables against one cosine per term
    # and point (every row of U and V, a ragged last row; the drawn runs
    # have one slab, the last example three, each from its own base), within
    # README's rounding term at the progression's largest t plus the same
    # rounding of the loop's theta - t log n, 2u theta sum n^(-1/2), which
    # is the larger at small K (t0 = 200, h = 0.29, 1435 points: the two
    # routes differ by 3.7e-13 against a README term of 3.5e-13)
    t = t0 + h * np.arange(m)
    K = rs_term_count(t0)
    th = rs_theta(t)
    p, _ = zeta._grid_sums((0, t[0], (t[-1] - t[0]) / (m - 1), np.zeros(1)), m,
                           lambda first, last: np.full(first.size, K))
    block = np.cos(th) * p.real - np.sin(th) * p.imag
    diff = float(np.max(np.abs(block - _main_sum_loop(t, th, K))))
    bound = (phase_rounding_term(float(t[-1]), K)
             + 2.0 * 2.0 ** -53 * float(th[-1]) * float(np.sum(np.arange(1, K + 1) ** -0.5)))
    assert diff <= bound, (diff, bound)


def test_block_kernel_across_the_k_seam(monkeypatch, block_calls):
    # one progression over K = 199, 200 and 201: K = 199 keeps the loop's
    # bits, the K = 200 run (two slabs of rows) and K = 201 take the kernel
    ts = TWO_PI * 199.97**2 + 0.06 * np.arange(46_000)
    kk = np.floor(np.sqrt(ts / TWO_PI)).astype(int)
    assert set(kk) == {199, 200, 201} and RS_BLOCK_MIN_K == 200
    z = rs_z_grid(ts)
    assert block_calls == [np.sum(kk == 200), np.sum(kk == 201)]
    assert block_calls[0] > 128 * 256
    ref = loop_z(ts, monkeypatch)
    assert np.array_equal(z[kk == 199], ref[kk == 199])
    assert_within_envelope(z, ref, ts)


def test_block_kernel_reversed_and_two_d(monkeypatch, block_calls):
    # a decreasing progression goes through the stable sort and stays one
    # progression per K run; a 2-d progression is one after ravel
    ts = (TWO_PI * 300.8**2 + 0.37 * np.arange(3000))[::-1]
    z = rs_z_grid(ts)
    assert len(block_calls) == 2 and sum(block_calls) == ts.size
    assert_within_envelope(z, loop_z(ts, monkeypatch), ts)
    grid = (TWO_PI * 450.25**2 + 0.11 * np.arange(2 * 700)).reshape(2, 700)
    z2 = rs_z_grid(grid)
    assert z2.shape == grid.shape and block_calls[2:] == [grid.size]
    assert_within_envelope(z2, loop_z(grid, monkeypatch), grid)


def test_block_kernel_two_point_runs(monkeypatch, block_calls):
    ts = np.array([TWO_PI * 250.3**2, TWO_PI * 250.3**2 + 0.5,
                   TWO_PI * 1000.7**2, TWO_PI * 1000.7**2 + 7.25])
    z = rs_z_grid(ts)
    assert block_calls == [2, 2]
    assert_within_envelope(z, loop_z(ts, monkeypatch), ts)


def test_progression_computes_only_its_rows(monkeypatch, block_calls):
    # the zeta-high window of 5,000 points at K = 3989 fills 20 rows of 256
    # (5,120 nodes) in each tile of terms; whole slabs of 128 rows, which the
    # quadrature needs, would compute 32,768 nodes
    t0 = TWO_PI * (3989**2 + 2000.0)
    ts = t0 + TWO_PI / (8.0 * math.log(t0 / TWO_PI)) * np.arange(5000)
    assert rs_term_count(ts[0]) == rs_term_count(ts[-1]) == 3989
    rows, phase_powers = [], zeta._phase_powers

    def spy(first, step, count, logn):
        if np.ndim(first):  # a slab's V table, from its first row
            rows.append(count)
        return phase_powers(first, step, count, logn)

    monkeypatch.setattr(zeta, "_phase_powers", spy)
    rs_z_grid(ts)
    assert block_calls == [5000]
    assert rows == [20] * -(-3989 // 128)


def test_non_progressions_keep_the_loop_bits(monkeypatch, block_calls, rng):
    # a sorted non-uniform grid and one-point grids above K = 200 never
    # reach the kernel and return the loop's bits exactly
    ts = np.sort(rng.uniform(TWO_PI * 250**2, TWO_PI * 252**2, 500))
    z = rs_z_grid(ts)
    ref = loop_z(ts, monkeypatch)
    assert np.array_equal(z, ref)
    for t in (TWO_PI * 200.5**2, 1e8 + 0.37):
        assert rs_z_grid(np.array([t]))[0] == loop_z(np.array([t]), monkeypatch)[0]
    assert block_calls == []


def gl_offsets(nodes: int, panels: int, width: float) -> np.ndarray:
    """The Gauss offsets of one chunk, as the quadrature lays them out."""
    x = np.polynomial.legendre.leggauss(nodes)[0]
    h = width / panels
    return ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * h).ravel()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.integers(1, 300), st.floats(0.0, 1.0), st.sampled_from([6, 12]),
       st.integers(1, 3), st.integers(1, 3000))
@example(0.25, 1, 0.0, 6, 1, 4956)              # the 283-term head from t = 0 to 200
@example(0.25, 56, 0.5, 6, 1, 3000)
@example(0.05, 300, 0.99, 12, 3, 3000)
@example(1.0, 300, 0.0, 12, 3, 2 * 128 * 7 * 36 + 5)  # three slabs of rows
def test_product_grid_kernel_matches_loop(width, K, where, nodes, panels, size):
    # nodes width k + offsets[j] from a drawn chunk of the band where
    # floor(sqrt(t / 2 pi)) = K, or of [0, 200) for K < 5, whose bands lie
    # below t = 200: every node of a kernel row against one term per cosine
    # (Riemann-Siegel) or the Euler-Maclaurin head and tail (below 200),
    # within README's kernel bound; the rows the kernel leaves get the
    # loop's bits
    offsets = gl_offsets(nodes, panels, width)
    em = K < 5
    lo, hi = (0.0, SCAN_RS_MIN_T) if em else (TWO_PI * K * K, TWO_PI * (K + 1) ** 2)
    k0 = math.floor((lo + where * (hi - lo)) / width)
    q = k0 * offsets.size + np.arange(size)
    ts = width * (q // offsets.size) + offsets[q % offsets.size]
    # the nodes of [0, 200) or of the band are one run of the ascending grid
    keep = ts < SCAN_RS_MIN_T if em else np.floor(np.sqrt(ts / TWO_PI)) == K
    assume(keep.any())
    q, ts = q[keep], ts[keep]
    grid = (int(q[0]), 0.0, width, offsets)
    # a kernel row's phases are those of its first chunk plus offsets up to
    # the row's span, so README's bound is taken at the end of the last row
    t_end = float(ts[-1]) + zeta._BLOCK_POINTS // offsets.size * width
    if em:
        s = 0.5 + 1j * ts
        ref = zeta._em_sum(s, 284, 12)
        got = zeta._zeta_half_em_grid(ts, grid)
        _, on = zeta._grid_sums(grid, ts.size, lambda first, last: (last < SCAN_RS_MIN_T) * 283)
        bound = phase_rounding_term(t_end, 283)
    else:
        th = rs_theta(ts)
        ref = _main_sum_loop(ts, th, K)
        p, on = zeta._grid_sums(grid, ts.size, zeta._rs_row_terms)
        got = np.where(on, np.cos(th) * p.real - np.sin(th) * p.imag, ref)
        bound = (phase_rounding_term(t_end, K)
                 + 2.0 * 2.0 ** -53 * float(th[-1]) * float(np.sum(np.arange(1, K + 1) ** -0.5)))
        assert np.array_equal(rs_z_grid(ts, grid)[~on], rs_z_grid(ts[~on]))
    assume(on.any())
    assert np.all(np.abs(got - ref) <= bound), float(np.max(np.abs(got - ref) - bound))
    assert np.array_equal(got[~on], ref[~on])


def test_product_grid_keeps_the_flat_bits_where_it_must():
    # a chunk across 2 pi K^2 and one across t = 200 lie in rows the kernel
    # leaves, so their nodes get the flat path's bits, in a call with their
    # neighbours; starts that are not multiples of the width are no product
    # grid at all (short_interval_ms)
    width, offsets = 0.3, gl_offsets(6, 1, 0.3)
    for jump in (TWO_PI * 20**2, SCAN_RS_MIN_T):
        k = math.floor(jump / width)
        assert width * k < jump < width * (k + 1)
        ks = np.arange(k - 300, k + 300)
        ts = (width * ks[:, None] + offsets).ravel()
        grid = (int(ks[0]) * offsets.size, 0.0, width, offsets)
        mine = np.repeat(ks == k, offsets.size)
        z_grid, z_flat = zeta_abs2_grid(ts, grid), zeta_abs2_grid(ts)
        assert np.array_equal(z_grid[mine], z_flat[mine]), jump
        assert not np.array_equal(z_grid, z_flat)  # the other rows take the kernel
    from zetadiv.error_terms import _gl_pieces
    keys = []

    def recording(ts, grid):
        keys.append(grid)
        return zeta_abs2_grid(ts, grid)

    starts = 1e4 + 0.1 + 0.25 * np.arange(64)
    vals, _ = _gl_pieces(starts, 0.25, 1, recording)
    assert keys == [None, None]
    assert np.array_equal(vals, _gl_pieces(starts, 0.25, 1, lambda ts, grid: zeta_abs2_grid(ts))[0])
    _gl_pieces(starts - 0.1, 0.25, 1, recording)
    assert keys[2][0] == 40_000 * 6 and keys[3] is None  # the audit is never a grid


def test_scan_engine_seam_continuity():
    # the EM/RS hand-off of the scan integrand does not jump
    eps = 1e-6
    below = zeta_abs2_grid(np.array([SCAN_RS_MIN_T - eps]))[0]
    above = zeta_abs2_grid(np.array([SCAN_RS_MIN_T + eps]))[0]
    assert abs(below - above) < 1e-3 * (1.0 + abs(below))


def test_zeta_abs2_grid_em_route_in_bounded_memory(traced_peak):
    # estar-scan's t < 200 share (4,956 points): the Euler-Maclaurin sum
    # runs 2^16 // 284 = 230 points a block, so its temporaries stay near
    # 1 MiB; each row is summed on its own, so a point's value is the same
    # alone as in any block
    ts = np.linspace(0.0, SCAN_RS_MIN_T, 4956, endpoint=False)
    vals, peak = traced_peak(lambda: zeta_abs2_grid(ts))
    assert peak < 4 * 2**20, peak
    for i in (0, 229, 230, 231, 4955):
        assert zeta_abs2_grid(ts[i:i + 1])[0] == vals[i], i


def test_zeta_abs2_grid_negative_t_is_abs_t(traced_peak):
    # |zeta(1/2-it)| = |zeta(1/2+it)|: a large negative t takes the
    # Riemann-Siegel route at |t| and leaves the Euler-Maclaurin cut of
    # the other points at 284
    base = np.linspace(0.0, 100.0, 2000)
    vals, peak = traced_peak(lambda: zeta_abs2_grid(np.append(base, -2e4)))
    assert vals[-1] == zeta_abs2_grid([2e4])[0]
    assert np.array_equal(vals[:-1], zeta_abs2_grid(base))
    assert peak < 8 * 2**20, peak
    assert np.array_equal(zeta_abs2_grid(-base[::-1]), zeta_abs2_grid(base)[::-1])
    with pytest.raises(InvalidArgumentError):
        zeta_abs2_grid([1.0, -np.inf])


# ---------------------------------------------------------------------------
# convexity exponent
# ---------------------------------------------------------------------------

def test_convexity_exponent_values():
    assert convexity_exponent(0.5) == 0.25
    assert convexity_exponent(1.0) == 0.0
    assert convexity_exponent(0.0) == 0.5


def test_convexity_exponent_domain():
    with pytest.raises(InvalidArgumentError):
        convexity_exponent(-0.1)
    with pytest.raises(InvalidArgumentError):
        convexity_exponent(1.1)


# ---------------------------------------------------------------------------
# Independent oracle: mpmath
# ---------------------------------------------------------------------------

def test_psi_literals_match_their_refit():
    # zeta stores the Chebyshev series of psi_rs and psi_rs'''/x as the
    # literals of this fit on OpenBLAS's SkylakeX kernels.  Refit under the
    # Haswell, Zen and Sandybridge kernels, they moved by up to 4.6e-16 and
    # 8.5e-9 (three derivatives scale the fit's rounding up), so each
    # literal must lie within 2e-15 and 5e-8 of a refit made anywhere
    from numpy.polynomial.chebyshev import chebder, chebfit, chebval

    def cheb_nodes(n):
        return np.cos(np.pi * (np.arange(n) + 0.5) / n)

    # the plain quotient is safe at the fit's 41 nodes: |cos 2 pi p| >= 0.10
    # there, and fitting the factored form sin(pi v (1-2k) - 2 pi v^2) /
    # sin(2 pi v) (v = p - 1/4 - k/2, sign aside) instead moves no
    # coefficient by more than 2.4e-16
    x = cheb_nodes(41)  # x = (p - 1/2) / 0.6
    p = 0.6 * x + 0.5
    even = chebfit(x, np.cos(TWO_PI * (p * p - p - 0.0625)) / np.cos(TWO_PI * p), 40)[0:28:2]
    # psi_rs''' in T_k(x): three derivatives of the even series with its odd zeros put back
    psi3_in_x = chebder(np.insert(even, np.arange(1, 14), 0.0), 3) / 0.6**3
    y = cheb_nodes(12)
    x_at_y = np.sqrt(0.5 * (y + 1.0))  # >= 0.066
    psi3_over_x = chebfit(y, chebval(x_at_y, psi3_in_x) / x_at_y, 11)
    assert zeta._PSI_EVEN.shape == (14,) and zeta._PSI3_OVER_X.shape == (12,)
    assert np.max(np.abs(even - zeta._PSI_EVEN)) <= 2e-15
    assert np.max(np.abs(psi3_over_x - zeta._PSI3_OVER_X)) <= 5e-8


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_psi_model_against_mpmath(rng):
    # the even/odd Chebyshev model of the remainder kernel gives C0 (psi)
    # and C1 (psi''' = x * psi'''/x) everywhere on [0, 1], including at the
    # cancelling zeros of cos(2 pi p) at p = 1/4 and 3/4
    from zetadiv.zeta import _psi_terms

    def psi(p):
        return (mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16))
                / mpmath.cos(2 * mpmath.pi * p))

    ps = np.concatenate([rng.uniform(0.0, 1.0, 24),
                         0.25 + rng.uniform(-1e-7, 1e-7, 4),
                         0.75 + rng.uniform(-1e-7, 1e-7, 4), [0.0, 0.5, 1.0]])
    xs = (ps - 0.5) / 0.6
    c0, c3_over_x = _psi_terms(xs)
    with mpmath.workdps(30):
        for p, v0, v3 in zip(ps, c0, xs * c3_over_x):
            mp_p = mpmath.mpf(float(p))
            assert abs(v0 - float(psi(mp_p))) <= 1e-14, p
            assert abs(v3 - float(mpmath.diff(psi, mp_p, 3))) <= 1e-10, p


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_rs_theta_against_siegeltheta(rng):
    # log-uniform over [2 pi, 1e8], plus both sides of the switch from log
    # Gamma to the real-t series and of t = 50
    ts = np.concatenate([np.exp(rng.uniform(math.log(TWO_PI), math.log(1e8), 400)),
                         rng.uniform(TWO_PI, 60.0, 100),
                         [TWO_PI, np.nextafter(THETA_SERIES_MIN_T, 0.0), THETA_SERIES_MIN_T,
                          49.999, 50.0, 50.001, 1e8]])
    got = rs_theta(ts)
    with mpmath.workdps(30):
        for t, th in zip(ts, got):
            ref = mpmath.siegeltheta(mpmath.mpf(float(t)))
            tol = max(1e-14, 4.0 * float(np.spacing(abs(float(ref)))))
            assert abs(th - ref) <= tol, (t, float(th - ref), tol)
    assert rs_theta(float(ts[0])) == got[0]


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_log_gamma_against_mpmath(rng):
    # criterion 4's s range and the reflection property's, taken as s and
    # 1 - s and as chi_factor's arguments s/2 and (1 - s)/2, plus the theta
    # points 1/4 + it/2 and points left of Re z = 1/2, of 0 and far left
    s4 = rng.uniform(-0.5, 1.5, 60) + 1j * rng.uniform(1.0, 60.0, 60)
    sr = rng.uniform(-1.0, 2.0, 60) + 1j * rng.uniform(-80.0, 80.0, 60)
    zs = np.concatenate([s4, 1.0 - s4, sr, 1.0 - sr,
                         s4 / 2.0, (1.0 - s4) / 2.0, sr / 2.0, (1.0 - sr) / 2.0,
                         0.25 + 0.5j * rng.uniform(-2 * THETA_SERIES_MIN_T, 200.0, 40),
                         rng.uniform(-6.0, 0.5, 40) + 1j * rng.uniform(-3.0, 3.0, 40),
                         rng.uniform(-50.0, -6.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40),
                         [0.3 + 0.0j, 0.5 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j, 12.5 + 0.0j,
                          -2.5 + 0.0j, -0.3 + 0.1j]])
    got = _log_gamma(zs)
    with mpmath.workdps(30):
        for z, lg in zip(zs, got):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            d = lg - ref
            if z.real < 0.0:  # left of Re z = 0: right modulo 2 pi i only
                d -= 2j * math.pi * round(d.imag / (2.0 * math.pi))
            assert abs(d) <= 1e-13 * max(1.0, abs(ref)), (z, d)


def readme_envelope(t: float) -> float:
    """README's error envelope for Z(t): the correction-series truncation
    0.053 t^(-5/4) plus the double rounding of the phases t log n."""
    return 0.053 * t ** -1.25 + phase_rounding_term(t, rs_term_count(t))


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_rs_z_grid_high_t_against_siegelz():
    ts = np.array([10000.3, 12345.6, 77403.722, 1e6 + 0.37, 1234567.8,
                   1e7 + 0.37, 9876543.21])
    zs = rs_z_grid(ts)
    for t, z in zip(ts, zs):
        with mpmath.workdps(25):
            err = abs(z - float(mpmath.siegelz(float(t))))
        assert err <= readme_envelope(t), (t, err)


def scan_window(K: float, n: int) -> np.ndarray:
    """n points from t = 2 pi K^2 at a scan step of 1/8 of the mean zero spacing."""
    t0 = TWO_PI * K * K
    return t0 + TWO_PI / (8.0 * math.log(t0 / TWO_PI)) * np.arange(n)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_block_kernel_against_siegelz(rng, block_calls):
    # block-kernel windows at K = 3989 (t ~ 1e8) and K ~ 400 (t ~ 1e6)
    # against the independent oracle, within README's envelope
    for K, n, probes in ((3989.3, 5_000, 3), (400.2, 20_000, 5)):
        ts = scan_window(K, n)
        calls = len(block_calls)
        zs = rs_z_grid(ts)
        assert block_calls[calls:] == [n]
        for i in np.sort(rng.choice(n, probes, replace=False)):
            t = float(ts[i])
            err = abs(zs[i] - float(mpmath.siegelz(t)))
            assert err <= readme_envelope(t), (t, err)


def test_block_kernel_blas_threads(tmp_path):
    # the kernel's GEMMs sum in an order that depends on the BLAS thread
    # count; the values must agree far inside the error envelope
    root = Path(__file__).resolve().parents[1]
    code = ("import sys, numpy as np; from zetadiv import rs_z_grid; "
            "ts = [2 * np.pi * 400.2**2 + 0.065 * np.arange(20_000), "
            "2 * np.pi * 3989.3**2 + 0.047 * np.arange(5_000)]; "
            "np.save(sys.argv[1], np.concatenate([rs_z_grid(t) for t in ts]))")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"z{threads}.npy"
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(np.load(path))
    assert outs[0].shape == (25_000,)
    assert float(np.max(np.abs(outs[0] - outs[1]))) <= 1e-12
