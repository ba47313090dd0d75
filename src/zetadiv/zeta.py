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
* ``z_function`` - the production Z(t) evaluator: Euler-Maclaurin backed
                   below ``RS_CROSSOVER_T`` (where the truncated
                   asymptotic correction series cannot reach 1e-6),
                   Riemann-Siegel above.

Also here: the functional-equation factor chi(s) with zeta(s) =
chi(s) * zeta(1-s), the phase theta1(T) = (T/2) log(T/(2 pi)) - T/2 - pi/8,
and the convexity exponent (1-sigma)/2.

The module needs numpy only.  The exact phase ``rs_theta`` is the real-t
asymptotic series of theta from t = 12 on; below that, and inside
``chi_factor``, a private complex log Gamma shifts z to |z| >= 12 by the
recurrence and applies Stirling's series, whose coefficients come from the
exact Bernoulli table of the Euler-Maclaurin route, and reflects Re z < 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebfit, chebval

from .errors import InvalidArgumentError, OutOfRangeError, PrecisionError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)
HALF_LOG_2PI = 0.5 * math.log(TWO_PI)

#: Below this t the production Z evaluator uses the Euler-Maclaurin route;
#: above it the Riemann-Siegel expansion (C0+C1) is accurate to ~1e-6 and
#: improves like t^(-5/4).
RS_CROSSOVER_T = 6000.0

#: Long scans switch from Euler-Maclaurin to Riemann-Siegel here; the RS
#: absolute error at the boundary (~7e-5) is far below quadrature needs.
SCAN_RS_MIN_T = 200.0

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
    out = np.empty(kmax + 1)
    fact = 1
    for k in range(1, kmax + 1):
        fact *= (2 * k - 1) * (2 * k)
        out[k] = float(Fraction(bern[2 * k], fact))
    out[0] = 0.0
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
        sl = slice(lo, min(lo + 2048, s.size))
        out[sl] = np.exp(-np.multiply.outer(s[sl], logn)).sum(axis=1)
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

    ``terms`` is the cut N of the direct sum (default ~1.3*|Im s| + 24,
    at least twice (1+|t|) is comfortably exceeded for small t) and
    ``correction_order`` the number of Bernoulli corrections (default 12,
    at most 20).  Two different parameter choices agree to ~1e-12 on the
    strip, which is the self-consistency check the tests pin down.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidArgumentError(f"zeta_em needs finite s, got {s}")
    if s == 1:
        raise InvalidArgumentError("zeta has a pole at s = 1")
    N = int(terms) if terms is not None else _em_terms(abs(s.imag))
    if N < 2:
        raise InvalidArgumentError("terms must be >= 2")
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
    if ts.size == 0:
        return np.zeros(0, dtype=complex)
    N = _em_terms(max(SCAN_RS_MIN_T, float(np.max(np.abs(ts)))))
    return _em_sum(0.5 + 1j * ts, N, _EM_ORDER)


# ---------------------------------------------------------------------------
# log Gamma: recurrence shift plus Stirling's series, reflection for Re z < 0
# ---------------------------------------------------------------------------

#: Stirling coefficients B_{2k}/(2k (2k-1)), k = 1..8, from the exact table;
#: at |z| >= 12 the first omitted term is below 1e-19.
_LG_COEF = np.array([_EM_COEF[k] * math.factorial(2 * k - 2) for k in range(1, 9)])
_LG_MIN_ABS = 12.0


def _log_gamma(z) -> np.ndarray:
    """Principal log Gamma(z) over a 1-d array of complex z off the poles.

    For Re z >= 0, z is shifted by the recurrence
    log Gamma(z) = log Gamma(z + m) - sum_{j<m} log(z + j) just far enough
    that |z + m| >= 12 (no shift once |Im z| >= 12, which keeps the count
    of rounded terms small); every log(z + j) has Re >= 0, so the result
    is the principal branch.  Stirling's series then gives
    log Gamma(z + m), with (w - 1/2) log w - w written as
    (w - 1/2)(log w - 1) - 1/2 to drop one large cancelling term.

    For Re z < 0 the reflection log Gamma(z) = log pi - log sin(pi z)
    - log Gamma(1 - z) is used, whose branch is right only modulo 2 pi i
    (enough under exp, as in chi).  It starts at Re z < 0, not 1/2, so
    that rs_theta's points z = 1/4 + it/2 stay on the principal branch.
    """
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.0
    w = np.where(refl, 1.0 - z, z)
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
    out = (w - 0.5) * (np.log(w) - 1.0) + (HALF_LOG_2PI - 0.5) + r * series - shift
    if np.any(refl):
        log_sin = np.array([_log_sin(math.pi * v) for v in z[refl]])
        out[refl] = LOG_PI - log_sin - out[refl]
    return out


# ---------------------------------------------------------------------------
# chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s)
# ---------------------------------------------------------------------------

def _log_sin(w: complex) -> complex:
    """log(sin(w)) stable for large |Im w| (branch irrelevant under exp)."""
    if abs(w.imag) < 300.0:
        return complex(np.log(np.sin(complex(w))))
    if w.imag > 0:
        # sin w = (i/2) e^{-iw} (1 - e^{2iw})
        return 1j * math.pi / 2 - LOG_2 - 1j * w + np.log1p(-np.exp(2j * w))
    return -1j * math.pi / 2 - LOG_2 + 1j * w + np.log1p(-np.exp(-2j * w))


def chi_factor(s) -> complex:
    """Functional-equation factor chi(s) with zeta(s) = chi(s) zeta(1-s).

    Computed as exp of log 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) for
    stability, with the in-house log Gamma (whose branch does not matter
    under exp); satisfies
    chi(s) * chi(1-s) = 1 and |chi(1/2+it)| = 1.  Real odd integers
    s >= 1 are poles (raise); real even integers are handled by their
    finite sin*Gamma limits.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real == round(s.real):
        k = int(round(s.real))
        if k >= 1 and k % 2 == 1:
            raise InvalidArgumentError(f"chi has a pole at s = {k}")
        if k >= 2 and k % 2 == 0:
            # sin zero against the Gamma pole: finite limit
            m = k // 2
            return complex((-1) ** m * 2.0 ** (k - 1) * math.pi ** k
                           / math.factorial(k - 1))
        if k <= 0 and k % 2 == 0:
            return 0.0 + 0.0j  # trivial zeros of zeta
    log_chi = (s * LOG_2 + (s - 1) * LOG_PI + _log_sin(math.pi * s / 2.0)
               + _log_gamma(np.array([1.0 - s]))[0])
    return complex(np.exp(log_chi))


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
# is entire (the cos zeros cancel), so one Chebyshev interpolant of degree
# 40 on [-0.1, 1.1], fitted once at import, is spectrally accurate for it
# and its derivatives, and needs no masks: C0 = psi_rs is read off the
# interpolant, C1 = -psi_rs'''/(96 pi^2) off its chebder.
# ---------------------------------------------------------------------------

def _psi_rs(p):
    """The Riemann-Siegel remainder kernel as the plain quotient."""
    return np.cos(TWO_PI * (p * p - p - 0.0625)) / np.cos(TWO_PI * p)


# The plain quotient is safe at the fit's 41 nodes: |cos 2 pi p| >= 0.10
# there, and fitting the factored form sin(pi v (1-2k) - 2 pi v^2) /
# sin(2 pi v) (v = p - 1/4 - k/2, sign aside) instead moves no coefficient
# by more than 2.4e-16.
_PSI_NODES = np.cos(np.pi * (np.arange(41) + 0.5) / 41)  # x = (p - 0.5) / 0.6
_PSI_COEF = chebfit(_PSI_NODES, _psi_rs(0.6 * _PSI_NODES + 0.5), 40)
_PSI3_COEF = chebder(_PSI_COEF, 3) / 0.6**3
_C1_SCALE = -1.0 / (96.0 * math.pi**2)


def rs_term_count(t) -> int:
    """Main-sum length floor(sqrt(t / (2 pi))) of the Riemann-Siegel formula."""
    return int(math.floor(math.sqrt(float(t) / TWO_PI)))


#: rs_z_grid refuses t past which README's phase-rounding envelope
#: 2u t sum_{2<=n<=K} log(n)/sqrt(n) exceeds this (from t ~ 2.12e9 on).
RS_PHASE_ERR_MAX = 1e-3

_NEG_ZETA_PRIME_HALF = 3.9226461392091516  # -zeta'(1/2)


def _phase_rounding_envelope(t: float) -> float:
    """README's envelope 2u t sum_{2<=n<=K} log(n)/sqrt(n), K = floor(sqrt(t/2 pi)).

    The sum is taken in closed form from its Euler-Maclaurin expansion,
    2 sqrt(K) (log K - 2) - zeta'(1/2) + log(K) / (2 sqrt K), which is
    within 2e-6 of it, relative, from K = 100 on.
    """
    K = rs_term_count(t)  # >= 1: callers have checked t >= 2 pi
    root = math.sqrt(K)
    log_sum = 2.0 * root * (math.log(K) - 2.0) + _NEG_ZETA_PRIME_HALF + math.log(K) / (2.0 * root)
    return 2.0 ** -52 * t * log_sum


#: K runs from this K up whose points form an arithmetic progression take the
#: block kernel; every other run keeps the per-term loop.  The acceptance
#: criteria and the benchmark's reference scans stay below K = 127, so their
#: values are the loop's bits.
RS_BLOCK_MIN_K = 200
_BLOCK_POINTS = 256  # j1 per row: points in a row of the block
_BLOCK_TERMS = 128  # terms per tile: a 256 x 128 complex tile is 0.5 MiB
_SLAB_ROWS = 128  # rows j2 per slab: a slab's complex sums are 0.5 MiB


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


def _phase_powers(step: float, start: int, count: int, logn: np.ndarray) -> np.ndarray:
    """Rows e^{-i k step log n} for k = start, ..., start + count - 1.

    k = start + 16 q + r: one exp table over q and one over r, multiplied,
    so a row costs a complex product instead of an exp per term.
    """
    lo = min(count, 16)
    hi = -(-count // lo)
    a = np.exp(-1j * np.multiply.outer((start + lo * np.arange(hi)) * step, logn))
    b = np.exp(-1j * np.multiply.outer(step * np.arange(lo), logn))
    return (a[:, None, :] * b).reshape(hi * lo, logn.size)[:count]


def _main_sum_block(t: np.ndarray, th: np.ndarray, K: int) -> np.ndarray:
    """The main sum of ``_main_sum_loop`` over a progression t_j = t_0 + j h.

    With j = j1 + 256 j2, P_j = sum_n n^(-1/2) e^{-i t_j log n} is
    (V c) @ U.T for c_n = n^(-1/2) e^{-i t_0 log n}, U[j1, n] =
    e^{-i j1 h log n} and V[j2, n] = e^{-i 256 j2 h log n}
    (Odlyzko-Schonhage).  Each slab of up to 128 rows j2 sums complex
    GEMMs over tiles of 128 terms (every tile and the slab's sums are at
    most 0.5 MiB) and is written as
    Re(e^{i theta} P) = cos(theta) Re P - sin(theta) Im P.  U is rebuilt
    for each slab, so memory stays flat in the run length.
    """
    m = t.size
    h = (t[-1] - t[0]) / (m - 1)
    n = np.arange(1, K + 1, dtype=np.float64)
    logn = np.log(n)
    c = np.exp(-1j * t[0] * logn) / np.sqrt(n)
    cols = min(m, _BLOCK_POINTS)
    rows_total = -(-m // cols)
    out = np.empty(m)
    for r0 in range(0, rows_total, _SLAB_ROWS):
        rows = min(_SLAB_ROWS, rows_total - r0)
        p = np.zeros((rows, cols), dtype=complex)
        for n0 in range(0, K, _BLOCK_TERMS):
            ln = logn[n0:n0 + _BLOCK_TERMS]
            u = _phase_powers(h, 0, cols, ln)
            v = _phase_powers(cols * h, r0, rows, ln)
            v *= c[n0:n0 + _BLOCK_TERMS]
            p += v @ u.T
        lo, hi = r0 * cols, min(m, (r0 + rows) * cols)
        p = p.ravel()[:hi - lo]
        out[lo:hi] = np.cos(th[lo:hi]) * p.real
        out[lo:hi] -= np.sin(th[lo:hi]) * p.imag
    return out


def rs_z_grid(ts) -> np.ndarray:
    """Hardy Z(t) on finite t >= 2 pi (any shape) via the Riemann-Siegel formula.

    Main sum of floor(sqrt(t/2 pi)) cosines plus the two correction
    coefficients C0 and C1, both read off the one Chebyshev model of
    psi_rs.  A K run with K >= ``RS_BLOCK_MIN_K`` whose points are within
    4 ulp of an arithmetic progression sums its main sum in
    ``_main_sum_block``; every other run in ``_main_sum_loop``.  The
    measured absolute error against the Euler-Maclaurin oracle stays under
    ~0.06 * t^(-5/4), plus the rounding of the phases t log n at large t;
    a grid whose largest t puts that rounding envelope past
    ``RS_PHASE_ERR_MAX`` raises PrecisionError before any summing starts.
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
        x = (np.sqrt(t / TWO_PI) - K - 0.5) / 0.6  # p = frac(sqrt(t / 2 pi)), x = (p - 1/2) / 0.6
        corr = chebval(x, _PSI_COEF) + _C1_SCALE * chebval(x, _PSI3_COEF) * np.sqrt(TWO_PI / t)
        sign = 1.0 if K % 2 == 1 else -1.0  # (-1)^(K-1)
        z[lo:hi] = 2.0 * acc + sign * np.power(TWO_PI / t, 0.25) * corr
    if perm is not None:
        z[perm] = z.copy()
    return z.reshape(shape)


def z_function(t: float) -> float:
    """Hardy Z(t) with |zeta(1/2+it)| = |Z(t)|, for t >= 10.

    Below ``RS_CROSSOVER_T`` the value comes from the Euler-Maclaurin route
    rotated by the exact phase (Z = e^{i theta(t)} zeta(1/2+it), real up
    to rounding); above it from the Riemann-Siegel expansion, whose
    C0+C1 truncation is past the 1e-6 level there and sharpens with t.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidArgumentError(f"z_function needs finite t, got {t}")
    if t < 10.0:
        raise OutOfRangeError("z_function supports t >= 10; use zeta_em below")
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
