"""Critical-line and half-plane evaluation of the Riemann zeta function.

Three routes are provided and cross-validated against each other:

* ``zeta_em``    - Euler-Maclaurin summation of zeta(s), the slow exact
                   oracle (>= 1e-10 relative for |Im s| <= 2000 with the
                   default parameters, see the tests for the measured
                   envelope);
* ``rs_z_grid``  - vectorised Riemann-Siegel evaluation of the Hardy
                   Z-function, main sum plus the leading two correction
                   coefficients, the fast engine behind every long scan;
                   a K run with K >= ``RS_BLOCK_MIN_K`` on an arithmetic
                   progression sums its main sum as blocked complex
                   matrix products (Odlyzko-Schonhage), any other run
                   one cosine per term and point;
* ``z_function`` - the production Z(t) evaluator for every finite t,
                   through Z(-t) = Z(t): Euler-Maclaurin backed below
                   |t| = ``RS_CROSSOVER_T`` (where the truncated
                   asymptotic correction series cannot reach 1e-6),
                   Riemann-Siegel above.

Also here: the functional-equation factor chi(s) with zeta(s) =
chi(s) * zeta(1-s), the phase theta1(T) = (T/2) log(T/(2 pi)) - T/2 - pi/8,
and the convexity exponent (1-sigma)/2.

The module needs numpy only.  The exact phase ``rs_theta`` is the real-t
asymptotic series of theta from t = 12 on; below that, and inside
``chi_factor``, a private complex log Gamma shifts z to |z| >= 12 by the
recurrence and applies Stirling's series, whose coefficients come from the
exact Bernoulli table of the Euler-Maclaurin route.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebfit, chebval

from .errors import InvalidArgumentError, OutOfRangeError, PrecisionError, ResourceLimitError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
HALF_LOG_2PI = 0.5 * math.log(TWO_PI)

#: Below this t the production Z evaluator uses the Euler-Maclaurin route;
#: above it the Riemann-Siegel expansion (C0+C1) is accurate to ~1e-6 and
#: improves like t^(-5/4).
RS_CROSSOVER_T = 6000.0

#: Long scans switch from Euler-Maclaurin to Riemann-Siegel here; the RS
#: absolute error at the boundary (~7e-5) is far below quadrature needs.
SCAN_RS_MIN_T = 200.0

EM_MAX_TERMS = 2**20  # zeta_em's cap on its cut N: 16 MiB of terms, |Im s| ~ 8.1e5
_EM_MAX_CORRECTION = 20  # the highest order any caller needs
_EM_ORDER = 12  # default number of Bernoulli corrections


# ---------------------------------------------------------------------------
# Bernoulli numbers B_{2k}, exact, for the Euler-Maclaurin tail.
# ---------------------------------------------------------------------------

def _bernoulli_em_coeffs(kmax: int) -> np.ndarray:
    """float coefficients B_{2k}/(2k)! for k = 1..kmax, from exact rationals."""
    n_need = 2 * kmax
    bern = [Fraction(1)]
    for m in range(1, n_need + 1):
        acc = Fraction(0)
        binom = 1  # C(m+1, k), starting at k = 0
        for k in range(m):
            acc += binom * bern[k]
            binom = binom * (m + 1 - k) // (k + 1)
        bern.append(-acc / (m + 1))
    out = np.zeros(kmax + 1)
    fact = 1
    for k in range(1, kmax + 1):
        fact *= (2 * k - 1) * (2 * k)
        out[k] = float(Fraction(bern[2 * k], fact))
    return out


_EM_COEF = _bernoulli_em_coeffs(_EM_MAX_CORRECTION)


def _em_terms(t_abs_max: float) -> int:
    """Default cut N = max(24, ceil(1.3 |t|) + 24) of the direct sum."""
    return max(24, math.ceil(1.3 * t_abs_max) + 24)


def _em_sum(s: np.ndarray, N: int, K: int) -> np.ndarray:
    """Euler-Maclaurin zeta over a 1-d array of s: direct sum to N - 1 plus K corrections."""
    out = np.zeros(s.shape, dtype=complex)
    logn = np.log(np.arange(1, N, dtype=np.float64))
    for lo in range(0, s.size, 2048):
        out[lo:lo + 2048] = np.exp(-np.multiply.outer(s[lo:lo + 2048], logn)).sum(axis=1)
    logN = math.log(N)
    Nms = np.exp(-s * logN)  # N^{-s}
    out += Nms * N / (s - 1) + 0.5 * Nms
    rising = s.copy()               # s (s+1) ... (s+2k-2), starts at k=1
    npow = Nms / N                  # N^{-s-2k+1}, starts at k=1
    inv_n2 = 1.0 / (N * N)
    for k in range(1, K + 1):
        out += _EM_COEF[k] * rising * npow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= inv_n2
    return out


def zeta_em(s, terms: int | None = None, correction_order: int | None = None) -> complex:
    """zeta(s) by Euler-Maclaurin summation, s != 1.

    ``terms`` is the cut N of the direct sum (default ceil(1.3 |Im s|) + 24,
    at most ``EM_MAX_TERMS``, else ResourceLimitError before any allocation)
    and ``correction_order`` the number of Bernoulli corrections (default
    12, at most 20).  Two different parameter choices agree to ~1e-12 on
    the strip, which is the self-consistency check the tests pin down.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidArgumentError(f"zeta_em needs finite s, got {s}")
    if s == 1:
        raise InvalidArgumentError("zeta has a pole at s = 1")
    N = int(terms) if terms is not None else _em_terms(abs(s.imag))
    if N < 2:
        raise InvalidArgumentError("terms must be >= 2")
    if N > EM_MAX_TERMS:
        raise ResourceLimitError(f"{N} Euler-Maclaurin terms pass the cap of {EM_MAX_TERMS}")
    K = int(correction_order) if correction_order is not None else _EM_ORDER
    if not 1 <= K <= _EM_MAX_CORRECTION:
        raise InvalidArgumentError(
            f"correction_order must be in [1, {_EM_MAX_CORRECTION}]")
    return complex(_em_sum(np.array([s]), N, K)[0])


def _zeta_half_em_grid(ts: np.ndarray) -> np.ndarray:
    """Vectorised zeta(1/2+it) over a modest grid (Euler-Maclaurin).

    Cost is len(ts) * N with N = _em_terms(max(SCAN_RS_MIN_T, max|t|)),
    intended for the t < SCAN_RS_MIN_T region of long scans.  Below that
    seam the cut is the fixed 284, so a value does not depend on which
    other points share its call.
    """
    ts = np.asarray(ts, dtype=float)
    N = _em_terms(max(SCAN_RS_MIN_T, float(np.max(np.abs(ts), initial=0.0))))
    return _em_sum(0.5 + 1j * ts, N, _EM_ORDER)


# ---------------------------------------------------------------------------
# log Gamma (recurrence shift plus Stirling's series) and
# chi(s) = pi^(s - 1/2) Gamma((1 - s)/2) / Gamma(s/2)
# ---------------------------------------------------------------------------

#: Stirling coefficients B_{2k}/(2k (2k-1)), k = 1..8, from the exact table;
#: at |z| >= 12 the first omitted term is below 1e-19.
_LG_COEF = np.array([_EM_COEF[k] * math.factorial(2 * k - 2) for k in range(1, 9)])
_LG_MIN_ABS = 12.0


def _log_gamma(z) -> np.ndarray:
    """log Gamma(z) over a 1-d array of complex z off the poles.

    z is shifted by the recurrence
    log Gamma(z) = log Gamma(z + m) - sum_{j<m} log(z + j) just far enough
    that |z + m| >= 12 (no shift once |Im z| >= 12, which keeps the count
    of rounded terms small), and Stirling's series gives log Gamma(z + m),
    with (w - 1/2) log w - w written as (w - 1/2)(log w - 1) - 1/2 to drop
    one large cancelling term.  For Re z >= 0 the result is the principal
    branch, as rs_theta needs; left of it, it is right modulo 2 pi i,
    which is enough under exp, as in chi.
    """
    w = np.asarray(z, dtype=complex)
    m = np.maximum(0.0, np.ceil(np.sqrt(np.maximum(_LG_MIN_ABS**2 - w.imag**2, 0.0)) - w.real))
    shift = np.zeros_like(w)
    for j in range(int(m.max(initial=0.0))):
        shift += np.where(j < m, np.log(w + j), 0.0)
    w = w + m
    r = 1.0 / w
    r2 = r * r
    series = np.full_like(w, _LG_COEF[-1])
    for c in _LG_COEF[-2::-1]:
        series = series * r2 + c
    return (w - 0.5) * (np.log(w) - 1.0) + (HALF_LOG_2PI - 0.5) + r * series - shift


def chi_factor(s) -> complex:
    """Functional-equation factor chi(s) with zeta(s) = chi(s) zeta(1-s).

    The Gamma ratio of pi^(-s/2) Gamma(s/2) zeta(s) = pi^(-(1-s)/2)
    Gamma((1-s)/2) zeta(1-s), taken as exp((s - 1/2) log pi
    + log Gamma((1-s)/2) - log Gamma(s/2)).  On the critical line the two
    Gamma arguments are conjugates, so the exponent's real part is exactly
    0.  Real odd integers s >= 1 are poles (raise); real even integers
    s <= 0 are the trivial zeros.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real == round(s.real):
        k = int(round(s.real))
        if k >= 1 and k % 2 == 1:
            raise InvalidArgumentError(f"chi has a pole at s = {k}")
        if k <= 0 and k % 2 == 0:
            return 0.0 + 0.0j  # trivial zeros of zeta
    lg = _log_gamma(np.array([(1.0 - s) / 2.0, s / 2.0]))
    return complex(np.exp((s - 0.5) * LOG_PI + lg[0] - lg[1]))


def convexity_exponent(sigma: float) -> float:
    """Phragmen-Lindelof exponent (1 - sigma)/2 on the critical strip."""
    if not 0.0 <= sigma <= 1.0:
        raise InvalidArgumentError(f"sigma must lie in [0, 1], got {sigma}")
    return (1.0 - sigma) / 2.0


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def theta1(T: float) -> float:
    """Leading phase theta1(T) = (T/2) log(T/(2 pi)) - T/2 - pi/8."""
    if not 0.0 < T < math.inf:
        raise InvalidArgumentError(f"theta1 requires finite T > 0, got {T}")
    return 0.5 * T * math.log(T / TWO_PI) - 0.5 * T - math.pi / 8.0


#: rs_theta uses its real-t series from here up.  The first omitted term,
#: 1414477/(1476034560 t^11), is 1.3e-15 at t = 12; the log-Gamma route
#: below forms intermediates a few times |theta|, which costs up to 2.5e-14
#: on [20, 50], so the series takes over as early as it is accurate.
THETA_SERIES_MIN_T = 12.0


def rs_theta(t):
    """Riemann-Siegel phase theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    For t >= 12 this is the real-t asymptotic series (Edwards, Riemann's
    Zeta Function, 6.5)
    (t/2) log(t/(2 pi)) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3)
    + 31/(80640 t^5) + 127/(430080 t^7) + 511/(1216512 t^9),
    within a few ulp up to t = 1e8 and beyond; below 12 it is the closed
    form through the principal log Gamma.  theta exceeds theta1(t) by
    1/(48 t) + O(t^-3).
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise InvalidArgumentError("rs_theta needs finite t")
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    tc = np.maximum(t_arr, THETA_SERIES_MIN_T)
    r = 1.0 / tc
    r2 = r * r
    val = (0.5 * tc * np.log(tc / TWO_PI) - 0.5 * tc - math.pi / 8.0
           + r * (1.0 / 48.0 + r2 * (7.0 / 5760.0 + r2 * (31.0 / 80640.0 + r2 * (
               127.0 / 430080.0 + r2 * (511.0 / 1216512.0))))))
    low = t_arr < THETA_SERIES_MIN_T
    if np.any(low):
        t_low = t_arr[low]
        val[low] = np.imag(_log_gamma(0.25 + 0.5j * t_low)) - 0.5 * t_low * LOG_PI
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# Riemann-Siegel correction coefficients.
#
# The remainder kernel  psi_rs(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)
# is entire (the cos zeros cancel) and even about p = 1/2.  A Chebyshev
# interpolant of degree 40 in x = (p - 1/2) / 0.6 on [-0.1, 1.1], fitted
# at import, is spectrally accurate; its odd coefficients are rounding
# (<= 6e-16).  With y = 2 x^2 - 1, T_2k(x) = T_k(y), so C0 = psi_rs is the
# 14-term series in y of its even coefficients up to T_26(x) (the next is
# 5e-17).  psi_rs''' is odd in x, and psi_rs'''/x is a 12-term series in y,
# refit at import from the third derivative of that chopped series (a
# polynomial of degree 22 in x, so the refit is exact).  C1 =
# -psi_rs'''/(96 pi^2).  Against mpmath on p in [0, 1], C0 is within
# 2e-15 and psi_rs''' within 6.2e-11; three derivatives of the whole
# degree-40 fit, which turn its rounding-level tail into a plateau,
# reached 6.1e-10.
# ---------------------------------------------------------------------------

def _psi_rs(p):
    """The Riemann-Siegel remainder kernel as the plain quotient."""
    return np.cos(TWO_PI * (p * p - p - 0.0625)) / np.cos(TWO_PI * p)


def _cheb_nodes(n: int) -> np.ndarray:
    """The n Chebyshev points of the first kind on [-1, 1]."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


# The plain quotient is safe at the fit's 41 nodes: |cos 2 pi p| >= 0.10
# there, and fitting the factored form sin(pi v (1-2k) - 2 pi v^2) /
# sin(2 pi v) (v = p - 1/4 - k/2, sign aside) instead moves no coefficient
# by more than 2.4e-16.
_PSI_NODES = _cheb_nodes(41)  # x = (p - 0.5) / 0.6
_PSI_EVEN = chebfit(_PSI_NODES, _psi_rs(0.6 * _PSI_NODES + 0.5), 40)[0:28:2]
# psi_rs''' in T_k(x): three derivatives of the even series with its odd zeros put back
_PSI3_IN_X = chebder(np.insert(_PSI_EVEN, np.arange(1, 14), 0.0), 3) / 0.6**3
_Y_NODES = _cheb_nodes(12)
_X_AT_Y_NODES = np.sqrt(0.5 * (_Y_NODES + 1.0))  # >= 0.066
_PSI3_OVER_X = chebfit(_Y_NODES, chebval(_X_AT_Y_NODES, _PSI3_IN_X) / _X_AT_Y_NODES, 11)
#: psi_rs and psi_rs'''/x in T_k(y), k = 0..13, one (2, 1) column per k
_PSI_Y_COEF = np.stack([_PSI_EVEN, np.pad(_PSI3_OVER_X, (0, 2))], axis=1)[:, :, None]
_C1_SCALE = -1.0 / (96.0 * math.pi**2)
_CORR_BLOCK = 8192  # points per block of the correction: its (2, n) arrays are 128 KiB


def _psi_terms(x: np.ndarray) -> np.ndarray:
    """psi_rs and psi_rs'''/x at x = (p - 1/2) / 0.6, as the rows of a (2, x.size) array.

    One Clenshaw loop in y = 2 x^2 - 1 runs both series (the second one's
    two top coefficients are 0).
    """
    y = 2.0 * x * x - 1.0
    y2 = 2.0 * y
    b1 = np.empty((2, x.size))
    b1[:] = _PSI_Y_COEF[-1]
    b2 = np.zeros_like(b1)
    w = np.empty_like(b1)
    for c in _PSI_Y_COEF[-2:0:-1]:
        np.multiply(y2, b1, out=w)
        w -= b2
        w += c
        b1, b2, w = w, b1, b2
    b1 *= y
    b1 -= b2
    b1 += _PSI_Y_COEF[0]
    return b1


def _rs_correction(t: np.ndarray, K: int) -> np.ndarray:
    """(-1)^(K-1) (2 pi/t)^(1/4) (C0 + C1 (2 pi/t)^(1/2)) over the points of one K run."""
    out = np.empty_like(t)
    for lo in range(0, t.size, _CORR_BLOCK):
        tb = t[lo:lo + _CORR_BLOCK]
        root = np.sqrt(tb / TWO_PI)
        x = (root - K - 0.5) / 0.6  # p = frac(sqrt(t / 2 pi)), x = (p - 1/2) / 0.6
        psi, psi3_over_x = _psi_terms(x)
        np.divide(1.0, root, out=root)  # (2 pi / t)^(1/2)
        corr = psi + _C1_SCALE * (x * psi3_over_x) * root
        out[lo:lo + _CORR_BLOCK] = np.sqrt(root) * corr
    return out if K % 2 == 1 else -out  # (-1)^(K-1)


def rs_term_count(t) -> int:
    """Main-sum length floor(sqrt(t / (2 pi))) of the Riemann-Siegel formula."""
    return int(math.floor(math.sqrt(float(t) / TWO_PI)))


#: rs_z_grid refuses t past which README's phase-rounding envelope
#: 2u t sum_{2<=n<=K} log(n)/sqrt(n) exceeds this (from t ~ 2.12e9 on).
RS_PHASE_ERR_MAX = 1e-3


def _phase_rounding_envelope(t: float) -> float:
    """README's envelope 2u t sum_{2<=n<=K} log(n)/sqrt(n), u = 2^-53, K = floor(sqrt(t/2 pi)).

    Past K = 2^15 (t > 6.7e9) the sum stops there: that partial sum already
    puts the envelope above RS_PHASE_ERR_MAX, and a full one at t = 1e300
    would not fit in memory.
    """
    n = np.arange(2.0, min(rs_term_count(t), 2 ** 15) + 1)
    return 2.0 ** -52 * t * float(np.sum(np.log(n) / np.sqrt(n)))


#: K runs from this K up whose points form an arithmetic progression take the
#: block kernel; every other run keeps the per-term loop.  The acceptance
#: criteria and the benchmark's reference scans stay below K = 127, so their
#: values are the loop's bits.
RS_BLOCK_MIN_K = 200
_BLOCK_POINTS = 256  # j1 per row: points in a row of the block
_BLOCK_TERMS = 128  # terms per tile: a 256 x 128 complex tile is 0.5 MiB
_SLAB_ROWS = 128  # rows j2 per slab: a slab's V table is 128 x 128 complex, 0.25 MiB


def _main_sum_loop(t: np.ndarray, th: np.ndarray, K: int) -> np.ndarray:
    """Main sum sum_{n<=K} n^(-1/2) cos(theta - t log n), one cosine per term and point."""
    acc = np.cos(th)  # n = 1
    for n in range(2, K + 1):
        acc = acc + np.cos(th - t * math.log(n)) / math.sqrt(n)
    return acc


def _is_progression(t: np.ndarray) -> bool:
    """True when t has 2+ points within 4 ulp of t_0 + j h, h from the endpoints."""
    m = t.size
    if m < 2:
        return False
    h = (t[-1] - t[0]) / (m - 1)
    dev = float(np.max(np.abs(t - (t[0] + h * np.arange(m)))))
    return dev <= 4.0 * float(np.spacing(max(t[0], t[-1])))


def _phase_powers(first, step: float, count: int, logn: np.ndarray) -> np.ndarray:
    """Rows first * e^{-i k step log n} for k = 0, ..., count - 1.

    k = 16 q + r: running products (``np.cumprod``) of e^{-i 16 step log n}
    over q from ``first`` and of e^{-i step log n} over r from 1, multiplied,
    so two rows of exps build the table; the products' rounding grows by an
    ulp or so per step over at most 16 steps, far below that of the phases.
    """
    lo = min(count, 16)
    hi = -(-count // lo)
    a = _geometric_rows(first, np.exp(-1j * (lo * step) * logn), hi)
    b = _geometric_rows(1.0, np.exp(-1j * step * logn), lo)
    return (a[:, None, :] * b).reshape(hi * lo, logn.size)[:count]


def _geometric_rows(first, ratio: np.ndarray, count: int) -> np.ndarray:
    """Rows first * ratio^q for q = 0, ..., count - 1, by a running product."""
    rows = np.empty((count, ratio.size), dtype=complex)
    rows[0] = first
    rows[1:] = ratio
    return np.cumprod(rows, axis=0, out=rows)


def _main_sum_block(t: np.ndarray, th: np.ndarray, K: int) -> np.ndarray:
    """The main sum of ``_main_sum_loop`` over a progression t_j = t_0 + j h.

    For a slab of up to 128 rows j2 from point s, j = s + j1 + 256 j2 and
    P_j = sum_n n^(-1/2) e^{-i t_j log n} is V @ U.T with U[j1, n] =
    e^{-i j1 h log n} and V[j2, n] = n^(-1/2) e^{-i (t_s + 256 j2 h) log n}
    (Odlyzko-Schonhage), so each slab starts from its own phase at t_s.
    A tile of 128 terms builds its U once and adds one GEMM per slab to
    the run's sums P (16 bytes per point); Z's main sum is
    Re(e^{i theta} P) = cos(theta) Re P - sin(theta) Im P.
    """
    m = t.size
    h = (t[-1] - t[0]) / (m - 1)
    n = np.arange(1, K + 1, dtype=np.float64)
    logn, root = np.log(n), np.sqrt(n)
    cols = min(m, _BLOCK_POINTS)
    rows_total = -(-m // cols)
    p = np.zeros((rows_total, cols), dtype=complex)
    for n0 in range(0, K, _BLOCK_TERMS):
        ln, rt = logn[n0:n0 + _BLOCK_TERMS], root[n0:n0 + _BLOCK_TERMS]
        u_t = _phase_powers(1.0, h, cols, ln).T
        for r0 in range(0, rows_total, _SLAB_ROWS):
            # e^{-i t_s log n} as e^{-i t_0 log n} e^{-i s h log n}: t_0 + s h is never rounded
            first = np.exp(-1j * t[0] * ln) * np.exp(-1j * (r0 * (cols * h)) * ln) / rt
            v = _phase_powers(first, cols * h, min(_SLAB_ROWS, rows_total - r0), ln)
            p[r0:r0 + _SLAB_ROWS] += v @ u_t
    p = p.ravel()[:m]
    return np.cos(th) * p.real - np.sin(th) * p.imag


def rs_z_grid(ts) -> np.ndarray:
    """Hardy Z(t) on finite t >= 2 pi (any shape) via the Riemann-Siegel formula.

    Main sum of floor(sqrt(t/2 pi)) cosines plus the two correction
    coefficients C0 and C1 from the even/odd Chebyshev model of psi_rs
    (14 and 12 terms in y = 2x^2 - 1; psi_rs''' within 6.2e-11), both
    series in one Clenshaw loop over blocks of 8192 points.  A K run with
    K >= ``RS_BLOCK_MIN_K`` whose points are within 4 ulp of an
    arithmetic progression sums its main sum in ``_main_sum_block``;
    every other run in ``_main_sum_loop``.  The measured absolute error
    against the Euler-Maclaurin oracle stays under ~0.06 * t^(-5/4), plus
    the rounding of the phases t log n at large t; a grid whose largest t
    puts that rounding envelope past ``RS_PHASE_ERR_MAX`` raises
    PrecisionError before any summing starts.
    """
    shape = np.shape(ts)
    ts = np.asarray(ts, dtype=float).ravel()
    if ts.size == 0:
        return np.zeros(shape)
    t_min, t_max = float(np.min(ts)), float(np.max(ts))
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise InvalidArgumentError("rs_z_grid needs finite t")
    if t_min < TWO_PI:
        raise OutOfRangeError("rs_z_grid needs t >= 2 pi (empty main sum below)")
    envelope = _phase_rounding_envelope(t_max)
    if envelope > RS_PHASE_ERR_MAX:
        raise PrecisionError(f"phase rounding envelope {envelope:.3e} at t={t_max!r} "
                             f"exceeds {RS_PHASE_ERR_MAX}")
    kk = np.floor(np.sqrt(ts / TWO_PI)).astype(np.int64)
    # each K run is one slice of K-sorted data: sorted input (every scan)
    # is used as it is, anything else goes through one stable sort; all
    # per-point work happens per run, so temporaries scale with the largest run
    perm = None if np.all(kk[:-1] <= kk[1:]) else np.argsort(kk, kind="stable")
    k_s, t_s = (kk, ts) if perm is None else (kk[perm], ts[perm])
    k_first, k_last = int(k_s[0]), int(k_s[-1])
    edges = np.searchsorted(k_s, np.arange(k_first, k_last + 2))
    z = np.empty_like(ts)
    for K, lo, hi in zip(range(k_first, k_last + 1), edges[:-1], edges[1:]):
        if lo == hi:
            continue
        t = t_s[lo:hi]
        th = rs_theta(t)
        main_sum = (_main_sum_block if K >= RS_BLOCK_MIN_K and _is_progression(t)
                    else _main_sum_loop)
        acc = main_sum(t, th, K)
        z[lo:hi] = 2.0 * acc + _rs_correction(t, K)
    if perm is not None:
        z[perm] = z.copy()
    return z.reshape(shape)


def z_function(t: float) -> float:
    """Hardy Z(t) with |zeta(1/2+it)| = |Z(t)|, for every finite t.

    Z is even (theta is odd, and zeta(1/2-it) is the conjugate of
    zeta(1/2+it)), so this evaluates Z(|t|).  Below ``RS_CROSSOVER_T`` the
    value comes from the Euler-Maclaurin route rotated by the exact phase
    (Z = e^{i theta(t)} zeta(1/2+it), real up to rounding); above it from
    the Riemann-Siegel expansion, whose C0+C1 truncation is past the 1e-6
    level there and sharpens with t.
    """
    t = abs(float(t))  # a non-finite t is refused by rs_z_grid
    if t < RS_CROSSOVER_T:
        w = np.exp(1j * rs_theta(t)) * zeta_em(0.5 + 1j * t)
        if abs(w.imag) > 1e-6 * (1.0 + abs(w)):
            raise PrecisionError(f"Z(t) imaginary residue {w.imag:.3e} at t={t}")
        return float(w.real)
    return float(rs_z_grid(np.array([t]))[0])


def zeta_abs2_grid(ts) -> np.ndarray:
    """|zeta(1/2+it)|^2 over an arbitrary t >= 0 grid (scan workhorse).

    Euler-Maclaurin below SCAN_RS_MIN_T, Riemann-Siegel above; accuracy
    is everywhere far below the quadrature tolerances that consume it.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty_like(ts)
    low = ts < SCAN_RS_MIN_T
    if np.any(low):
        out[low] = np.abs(_zeta_half_em_grid(ts[low])) ** 2
    if np.any(~low):
        out[~low] = rs_z_grid(ts[~low]) ** 2
    return out
