import math

import numpy as np
import pytest

from zetadiv import (InvalidArgumentError, OutOfRangeError, chi_factor, chi_stirling,
                     convexity_exponent, rs_term_count, rs_theta, rs_z_grid, theta1,
                     theta1_deriv, z_function, zeta_abs2_grid, zeta_em)
from zetadiv.zeta import RS_CROSSOVER_T, SCAN_RS_MIN_T, TWO_PI

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


def test_theta1_derivative_finite_difference():
    T, h = 1000.0, 1e-3
    fd = (theta1(T + h) - theta1(T - h)) / (2 * h)
    assert abs(fd - theta1_deriv(T)) < 1e-6
    assert abs(theta1_deriv(T) - 0.5 * math.log(T / TWO_PI)) == 0.0


def test_theta1_domain():
    with pytest.raises(InvalidArgumentError):
        theta1(0.0)
    with pytest.raises(InvalidArgumentError):
        theta1_deriv(-3.0)


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

def test_chi_unit_modulus_on_critical_line():
    for t in (10.0, 100.0, 1000.0):
        assert abs(abs(chi_factor(0.5 + 1j * t)) - 1.0) <= 1e-9


def test_chi_reflection_identity():
    s = 0.3 + 7j
    assert abs(chi_factor(s) * chi_factor(1 - s) - 1.0) <= 1e-9


def test_chi_reflection_random(rng):
    for _ in range(20):
        s = complex(rng.uniform(-1, 2), rng.uniform(-80, 80))
        if abs(s.imag) < 0.5:  # keep clear of the real-axis special points
            continue
        assert abs(chi_factor(s) * chi_factor(1 - s) - 1.0) <= 1e-9, s


def test_chi_stirling_accuracy():
    s = 0.5 + 50j
    rel = abs(chi_stirling(s) - chi_factor(s)) / abs(chi_factor(s))
    assert rel <= 0.05
    # O(1/t): an order of magnitude higher t is about an order better
    rel2 = abs(chi_stirling(0.5 + 500j) - chi_factor(0.5 + 500j)) / abs(chi_factor(0.5 + 500j))
    assert rel2 < rel / 3


def test_chi_poles_and_special_points():
    with pytest.raises(InvalidArgumentError):
        chi_factor(1.0)
    with pytest.raises(InvalidArgumentError):
        chi_factor(3.0)
    # finite limits where the sin zero cancels the Gamma pole
    assert abs(chi_factor(2.0) - (-2 * math.pi**2)) < 1e-9
    # zeta(2) = chi(2) zeta(-1) with zeta(-1) = -1/12
    assert abs(chi_factor(2.0) * (-1.0 / 12.0) - math.pi**2 / 6) < 1e-9
    assert chi_factor(-2.0) == 0.0  # trivial zero
    assert abs(chi_factor(-1.0) * zeta_em(2.0) - zeta_em(-1.0)) < 1e-12


def test_chi_large_t_stability():
    # |chi| = 1 must survive the large-|Im| log-sin branch
    s = 0.5 + 1j * 5000.0
    assert abs(abs(chi_factor(s)) - 1.0) < 1e-8


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


def test_z_function_matches_em_oracle(rng):
    for t in rng.uniform(10, 2000, 40):
        zf = z_function(float(t))
        assert abs(abs(zf) - abs(em_z(float(t)))) <= 1e-6 * max(1.0, abs(zf))


def test_z_function_domain():
    with pytest.raises(OutOfRangeError):
        z_function(9.9)


def test_first_two_zero_brackets():
    # sign changes bracketing the first two critical-line zeros
    assert z_function(14.0) * z_function(14.2) < 0
    assert z_function(20.9) * z_function(21.1) < 0
    # bisect with the independent oracle to locate them
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


def test_scan_engine_seam_continuity():
    # the EM/RS hand-off of the scan integrand does not jump
    eps = 1e-6
    below = zeta_abs2_grid(np.array([SCAN_RS_MIN_T - eps]))[0]
    above = zeta_abs2_grid(np.array([SCAN_RS_MIN_T + eps]))[0]
    assert abs(below - above) < 1e-3 * (1.0 + abs(below))


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

@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_psi_model_against_mpmath(rng):
    # the one Chebyshev model of the remainder kernel gives C0 (psi) and C1
    # (psi''') everywhere on [0, 1], including at the cancelling zeros of
    # cos(2 pi p) at p = 1/4 and 3/4
    from numpy.polynomial.chebyshev import chebval
    from zetadiv.zeta import _PSI3_COEF, _PSI_COEF

    def psi(p):
        return (mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16))
                / mpmath.cos(2 * mpmath.pi * p))

    ps = np.concatenate([rng.uniform(0.0, 1.0, 24),
                         0.25 + rng.uniform(-1e-7, 1e-7, 4),
                         0.75 + rng.uniform(-1e-7, 1e-7, 4), [0.0, 0.5]])
    with mpmath.workdps(30):
        for p in ps:
            x = (p - 0.5) / 0.6
            mp_p = mpmath.mpf(float(p))
            assert abs(chebval(x, _PSI_COEF) - float(psi(mp_p))) <= 1e-14, p
            assert abs(chebval(x, _PSI3_COEF) - float(mpmath.diff(psi, mp_p, 3))) <= 1e-8, p


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
def test_rs_z_grid_high_t_against_siegelz():
    # README's envelope: the correction-series truncation 0.053 t^(-5/4)
    # plus the double rounding of the phases t log n, 2u t sum log n/sqrt n
    ts = np.array([10000.3, 12345.6, 77403.722, 1e6 + 0.37, 1234567.8,
                   1e7 + 0.37, 9876543.21])
    zs = rs_z_grid(ts)
    u = 2.0 ** -53
    for t, z in zip(ts, zs):
        n = np.arange(2, rs_term_count(t) + 1)
        tol = 0.053 * t ** -1.25 + 2.0 * u * t * float(np.sum(np.log(n) / np.sqrt(n)))
        with mpmath.workdps(25):
            err = abs(z - float(mpmath.siegelz(float(t))))
        assert err <= tol, (t, err, tol)
