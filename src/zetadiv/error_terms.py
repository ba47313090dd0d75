"""Mean-square error term of the critical line, three ways, and its moments.

The central object is

    E(T) = integral_0^T |zeta(1/2+it)|^2 dt - T*(log(T/(2 pi)) + 2*gamma - 1),

computed here by

* ``E_grid``            - composite Gauss-Legendre quadrature of Z(t)^2,
                          cumulative over a uniform grid in one pass, with
                          an audited error estimate; ``E_direct(T)`` is the
                          last point of a grid on [0, T];
* ``E_atkinson``        - the Atkinson explicit formula: two divisor-
                          weighted oscillating sums with exact ar-sinh
                          phase and amplitude factors, remainder O(log^2 T);
* ``E_balasubramanian`` - the double-sum explicit formula driven by the
                          Riemann-Siegel main sum, remainder O(log^2 T):
                          4K sines and cosines by angle addition, its
                          K^2/2 pairs' multiply-adds in row tiles, O(K)
                          memory, every phase reduced mod 2 pi exactly, so
                          the error left comes from the rounding of log n
                          and theta1 (carried to 2.5e-18 relative).

On top of E sit the hybrid remainder E*(t) = E(t) - 2 pi delta*(t/(2 pi)),
its moment scans (k = 2, 4, 5 against the T^{4/3} log^3 T, T^{16/9}, T^2
scales), the smoothed short-interval mean square, and a dyadic-block
slope estimator for empirical growth exponents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _workers
from .divisor import (MAX_SIEVE_LIMIT, SUM_BLOCK, DivisorTable, block_sum, delta_star_grid,
                      main_term, sieve_divisors)
from .errors import (InvalidArgumentError, OutOfRangeError, PrecisionError,
                     PrecisionWarning, ResourceLimitError)
from .zeta import SCAN_RS_MIN_T, TWO_PI, rs_term_count, zeta_abs2_grid

#: Atkinson cutoff window: the formula needs A*T < N < A'*T for fixed
#: 0 < A < A'; these are the configured constants (N defaults to T).
ATKINSON_A = 0.5
ATKINSON_A_PRIME = 2.0

#: Largest Riemann-Siegel length K the O(K^2) Balasubramanian sum accepts.
BALASU_K_CAP = 10**4

#: First dyadic moment checkpoint is 2^MOMENT_J_MIN.
MOMENT_J_MIN = 4


# ---------------------------------------------------------------------------
# Cumulative quadrature of |zeta(1/2+it)|^2
# ---------------------------------------------------------------------------

#: Most chunks a ``ZetaMeanSquare`` cache holds (so most points ``E_grid``
#: builds) and most integrand nodes one quadrature call evaluates, checked
#: before anything is allocated: 2**24 points are 128 MiB per float64
#: column, and at the default chunk 0.25 they reach t ~ 4.2e6.
E_GRID_MAX_POINTS = 2**24

#: Gauss-Legendre nodes per panel; the audit re-integrates at twice as many.
GL_NODES = 6
_GL_RULE = np.polynomial.legendre.leggauss(GL_NODES)
_GL_AUDIT_RULE = np.polynomial.legendre.leggauss(2 * GL_NODES)


def _panel_count(width: float, b: float) -> int:
    """Panels for a piece that ends at b, each spanning at most 2.5 radians of
    Z(t)^2's phase log(t/(2 pi)); never decreases with b."""
    return max(1, math.ceil(width * math.log(max(b / TWO_PI, math.e)) / 2.5))


def _check_nodes(nodes: int) -> None:
    """Refuse one integrand call of ``E_GRID_MAX_POINTS`` nodes or more."""
    if nodes >= E_GRID_MAX_POINTS:
        raise ResourceLimitError(f"{nodes:.3e} nodes in one quadrature call reach the cap")


def _gl_sum(starts: np.ndarray, width: float, m: int, f, rule) -> np.ndarray:
    """Composite Gauss-Legendre of f on each piece [s, s + width], m panels.

    Panel-major nodes, so sorted starts give sorted t; each row is reduced on
    its own, so a piece's value does not depend on the call's other pieces.
    """
    x, w = rule
    _check_nodes(starts.size * m * x.size)
    h = width / m
    offsets = ((np.arange(m)[:, None] + 0.5 * (x + 1.0)) * h).ravel()
    ys = f((starts[:, None] + offsets).ravel()).reshape(starts.size, offsets.size)
    return (ys * np.tile(0.5 * h * w, m)).sum(axis=1)


def _gl_pieces(starts: np.ndarray, width: float, m: int, f) -> tuple[np.ndarray, float]:
    """GL_NODES-point integrals of f on the pieces, and the audit estimate.

    The audit re-integrates at 2*GL_NODES nodes, in one more call of f, every
    64th piece and each piece that holds a jump of ``zeta_abs2_grid``: the
    route seam at ``SCAN_RS_MIN_T`` and each Riemann-Siegel length change at
    2 pi K^2 above it.  The largest audited difference is the error charged
    to every piece.
    """
    vals = _gl_sum(starts, width, m, f, _GL_RULE)
    ends = starts + width
    audit = (ends > SCAN_RS_MIN_T) & ((starts < SCAN_RS_MIN_T) | (
        np.floor(np.sqrt(starts / TWO_PI)) != np.floor(np.sqrt(ends / TWO_PI))))
    audit[::64] = True
    fine = _gl_sum(starts[audit], width, m, f, _GL_AUDIT_RULE)
    return vals, float(np.max(np.abs(fine - vals[audit])))


class ZetaMeanSquare:
    """Chunked, extendable quadrature cache for integral_0^T Z(t)^2 dt.

    The axis is split into fixed chunks, integrated by ``_gl_pieces`` in
    groups; every chunk carries its group's audit estimate.  That covers
    quadrature only: the integrand's own Riemann-Siegel error, at most
    0.053 t^(-5/4) per Z value, is not in it.  Extending from T1 to T2 only
    computes the new chunks, so one instance serves a whole scan.
    Chunk groups are integrated concurrently and summed in chunk order, so
    the bits do not depend on the thread count; do not share an instance
    while it grows.
    """

    def __init__(self, chunk: float = 0.25):
        if not 0.0 < chunk < math.inf:
            raise InvalidArgumentError(f"chunk must be positive and finite, got {chunk!r}")
        self.chunk = float(chunk)
        self._cum = np.zeros(1)    # cumulative integral at chunk boundaries
        self._err = np.zeros(1)    # cumulative audit error estimate

    def extend_to(self, T: float) -> None:
        """Ensure the cached chunks cover [0, T]; only new chunks are computed.

        Groups of up to 4096 new chunks take the panel count of their last
        chunk, which no chunk's own count exceeds (one panel for the default
        chunk below t = 2 pi e^10 ~ 1.38e5).  The calling thread and
        ``_workers.WORKERS - 1`` helpers, each moved to the CPUs beside the
        caller's, take groups from one shared iterator; then one running sum
        adds the pieces in chunk order.  Each call that grows the cache
        allocates its two arrays once, at their new length; a cache of
        ``E_GRID_MAX_POINTS`` chunks or more raises ResourceLimitError first.
        If a group raises, the cache is left as it was.
        """
        if not math.isfinite(T):
            raise InvalidArgumentError(f"extend_to needs finite T, got {T!r}")
        if T / self.chunk >= E_GRID_MAX_POINTS:
            raise ResourceLimitError(f"T/chunk = {T / self.chunk:.3e} reaches the cap "
                                     f"of {E_GRID_MAX_POINTS} chunks")
        need = math.ceil(max(T, 0.0) / self.chunk)
        k = self._cum.size - 1
        if k >= need:
            return
        cum, err = np.empty(need + 1), np.empty(need + 1)
        cum[:k + 1], err[:k + 1] = self._cum, self._err
        bounds = [*range(k, need, 4096), need]  # group g is chunks bounds[g]..bounds[g+1]
        worst = np.empty(len(bounds) - 1)
        groups = iter(range(worst.size))  # a range iterator's next() is atomic

        def integrate(cpus=()) -> None:
            try:
                _workers.move_to(cpus)
                for g in groups:
                    lo, hi = bounds[g], bounds[g + 1]
                    m = _panel_count(self.chunk, hi * self.chunk)
                    # each piece lands in its own slot; the running sum comes later
                    cum[lo + 1:hi + 1], worst[g] = _gl_pieces(
                        self.chunk * np.arange(lo, hi), self.chunk, m, zeta_abs2_grid)
            except BaseException:
                for _ in groups:  # the other threads stop at their next group
                    pass
                raise

        helpers = min(_workers.WORKERS, worst.size) - 1
        if helpers > 0:
            # imported here: its import (logging included) costs about 10 ms
            # at start-up, which no other path of the package needs
            from concurrent.futures import ThreadPoolExecutor
            cpus = _workers.cpus_beside_caller()
            with ThreadPoolExecutor(helpers) as pool:
                futures = [pool.submit(integrate, cpus) for _ in range(helpers)]
                integrate()
            for f in futures:
                f.result()
        else:
            integrate()
        # cumsum adds in sequence, as a running float sum would
        np.cumsum(cum[k:], out=cum[k:])
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            err[lo + 1:hi + 1] = err[lo] + worst[g] * np.arange(1, hi - lo + 1)
        self._cum, self._err = cum, err

    def error_estimate(self, T: float) -> float:
        """Accumulated audit error estimate of the cached prefix at T >= 0."""
        if not 0.0 <= T < math.inf:
            raise InvalidArgumentError(f"error_estimate needs finite T >= 0, got {T!r}")
        self.extend_to(T)
        return float(self._err[int(T / self.chunk)])


#: E_grid raises PrecisionError when the audit estimate at its last point
#: exceeds this (so E_direct does at T).
E_DIRECT_TOL = 0.1


def check_E_grid(tmax: float, step: float) -> None:
    """Refuse a tmax or step that is not positive and finite, and a step above
    tmax, whose grid would hold only t = 0."""
    if not (0.0 < tmax < math.inf and 0.0 < step < math.inf):
        raise InvalidArgumentError(f"tmax and step must be positive and finite, "
                                   f"got tmax={tmax!r}, step={step!r}")
    if tmax / step + 1e-9 < 1.0:
        raise InvalidArgumentError(f"step {step!r} exceeds tmax {tmax!r}: "
                                   "the E grid would hold only t = 0")


def E_grid(tmax: float, step: float = 0.25) -> tuple[np.ndarray, np.ndarray, float]:
    """E on the uniform grid 0, step, ..., n step <= tmax (cumulative, one pass).

    Returns the grid, E on it and the audit error estimate at its last
    point, which must come in under ``E_DIRECT_TOL`` or a PrecisionError
    is raised.  ``check_E_grid`` refuses the arguments first; a grid of
    ``E_GRID_MAX_POINTS`` points or more raises ResourceLimitError (from
    ``ZetaMeanSquare.extend_to``).
    """
    check_E_grid(tmax, step)
    integ = ZetaMeanSquare(chunk=step)
    integ.extend_to(tmax)  # ceil(tmax/step) chunks, so n below is covered
    n = math.floor(tmax / step + 1e-9)
    ts = step * np.arange(n + 1)
    err = float(integ._err[n])
    if err > E_DIRECT_TOL:
        raise PrecisionError(f"quadrature error estimate {err:.3e} exceeds {E_DIRECT_TOL}")
    return ts, integ._cum[:n + 1] - TWO_PI * main_term(ts / TWO_PI), err


def E_direct(T: float) -> float:
    """E(T) at the last point of an ``E_grid`` of ceil(T/0.25) equal chunks
    of [0, T]; 0.0 at T = 0."""
    if not 0.0 <= T < math.inf:
        raise InvalidArgumentError(f"E_direct needs finite T >= 0, got {T!r}")
    return float(E_grid(T, T / math.ceil(T / 0.25))[1][-1]) if T > 0 else 0.0


# ---------------------------------------------------------------------------
# Atkinson's explicit formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtkinsonEval:
    """Term-by-term breakdown of the Atkinson formula at one T."""

    T: float
    N: float
    N_prime: float
    sigma1: float
    sigma2: float
    value: float


def atkinson_n_prime(T: float, N: float) -> float:
    """Second cutoff N' = T/(2 pi) + N/2 - sqrt(N^2/4 + N T/(2 pi))."""
    return T / TWO_PI + N / 2.0 - math.sqrt(N * N / 4.0 + N * T / TWO_PI)


def atkinson_cutoffs(T: float, N: float | None = None) -> tuple[float, float, int]:
    """Check T > 0 and A*T < N < A'*T; return N (default T), N' and the table limit needed.

    An N past ``MAX_SIEVE_LIMIT`` raises ResourceLimitError before N' is
    formed: no divisor table holds that many entries.
    """
    if T <= 0:
        raise InvalidArgumentError(f"E_atkinson needs T > 0, got T={T!r}")
    N = float(T) if N is None else float(N)
    if not ATKINSON_A * T < N < ATKINSON_A_PRIME * T:
        raise InvalidArgumentError(
            f"cutoff N={N} outside ({ATKINSON_A}*T, {ATKINSON_A_PRIME}*T) for T={T}")
    if math.floor(N) > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"cutoff N={N!r} exceeds the sieve cap {MAX_SIEVE_LIMIT}")
    n_prime = atkinson_n_prime(T, N)
    return N, n_prime, max(math.floor(N), math.floor(n_prime), 1)


def _atkinson_parts(T, n):
    """Amplitude and phase of sigma1's n-th term, from one x = pi n/(2T),
    sqrt(x) and arsinh(sqrt(x)); ``atkinson_e`` and ``atkinson_f`` are its parts."""
    n = np.asarray(n, dtype=float)
    x = math.pi * n / (2.0 * T)
    rx = np.sqrt(x)
    ash = np.arcsinh(rx)
    return ((1.0 + x) ** (-0.25) * rx / ash,
            2.0 * T * ash + np.sqrt(TWO_PI * n * T + (math.pi * n) ** 2) - math.pi / 4.0)


def atkinson_f(T, n):
    """Exact phase 2 T arsinh(sqrt(pi n/(2T))) + sqrt(2 pi n T + pi^2 n^2) - pi/4.

    Its expansion starts -pi/4 + 2 sqrt(2 pi n T) + (1/6) sqrt(2 pi^3)
    n^{3/2} T^{-1/2} + ...; the closed form is used everywhere, the
    expansion only in tests.
    """
    return _atkinson_parts(T, n)[1]


def atkinson_e(T, n):
    """Exact amplitude (1 + pi n/(2T))^(-1/4) / ((2T/(pi n))^(1/2) arsinh(sqrt(pi n/(2T)))).

    Equals 1 + O(n/T); evaluated as sqrt(x)/arsinh(sqrt(x)) against the
    quarter-power factor, which is stable down to n/T -> 0.
    """
    return _atkinson_parts(T, n)[0]


def E_atkinson(T: float, N: float | None = None, *, table: DivisorTable) -> AtkinsonEval:
    """E(T) by the Atkinson explicit formula with cutoff N (default T).

    sigma1 is the alternating divisor sum with amplitude/phase factors
    atkinson_e/atkinson_f; sigma2 the shorter logarithmic sum up to N'.
    The divisor table must cover max(N, N').  Remainder is O(log^2 T)
    with a modest constant (the cross-formula tests fit it).
    """
    N, n_prime, need = atkinson_cutoffs(T, N)
    if need > table.limit:
        raise OutOfRangeError(f"divisor table limit {table.limit} < required {need}")

    def sigma1_terms(n):
        sign = 1.0 - 2.0 * (n & 1)
        d = table.values[n].astype(np.float64)
        amplitude, phase = _atkinson_parts(T, n)
        return sign * d * n ** (-0.75) * amplitude * np.cos(phase)

    def sigma2_terms(n):
        lg = np.log(T / (TWO_PI * n))
        d = table.values[n].astype(np.float64)
        return -2.0 * d * n ** (-0.5) / lg * np.cos(T * lg - T + math.pi / 4.0)

    sigma1 = (math.sqrt(2.0) * (T / TWO_PI) ** 0.25
              * block_sum(math.floor(N), sigma1_terms))
    sigma2 = float(block_sum(math.floor(n_prime), sigma2_terms))
    return AtkinsonEval(T=float(T), N=N, N_prime=n_prime,
                        sigma1=sigma1, sigma2=sigma2, value=sigma1 + sigma2)


# ---------------------------------------------------------------------------
# Balasubramanian's explicit formula
# ---------------------------------------------------------------------------

#: 2 pi as a hi/lo pair: _TWO_PI_LO = 2 pi - fl(2 pi).
_TWO_PI_LO = 2.4492935982947064e-16
#: ln 2 in Cody and Waite's two parts: k * _LN2_HI is exact for |k| < 2**20.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
#: log(2 pi) as a hi/lo pair.
_LOG_TWO_PI_HI, _LOG_TWO_PI_LO = 1.8378770664093453, 1.4447872176368647e-16
#: 1/k! for k = 15 down to 3: expm1(z) - z - z^2/2 = z^3 polyval(_EXPM1_TAIL, z),
#: to within 1e-19 for |z| <= 0.35.
_EXPM1_TAIL = 1.0 / np.array([math.factorial(k) for k in range(15, 2, -1)], dtype=float)

#: Most (m, n) pairs one row tile of ``E_balasubramanian`` spans (128 KiB
#: per float64 temporary).
_BALASU_TILE_PAIRS = 2**14


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's two-product: a*b = p + e exactly, p = fl(a*b)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mod_two_pi(p, e):
    """(p + e) mod 2 pi in about [-pi, pi], for p + e exact and |e| <= ulp(p).

    k*fl(2 pi) is formed exactly and p - fl(k*fl(2 pi)) is exact (Sterbenz),
    so the only rounding is that of the small remainder.
    """
    k = np.rint(p / TWO_PI)
    q, qe = _two_product(k, TWO_PI)
    return (p - q) + ((e - qe) - k * _TWO_PI_LO)


def _log1p_hi_lo(y):
    """log1p(y) = hi + lo for |y| <= 0.42, hi = fl(log1p(y)) and lo to 2.5e-18.

    One Newton step: lo = -(expm1(hi) - y) / (1 + y), where (hi - y) +
    hi^2/2 is exact (Sterbenz, twice; hi^2 by the two-product) and only the
    tail hi^3/6 + hi^4/24 + ... (below 0.0075) is rounded.
    """
    hi = np.log1p(y)
    p2, e2 = _two_product(hi, hi)
    tail = hi ** 3 * np.polyval(_EXPM1_TAIL, hi)
    return hi, -(((hi - y) + 0.5 * p2) + (0.5 * e2 + tail)) / (1.0 + y)


def _t_log_mod_two_pi(T, x):
    """A value congruent to T log x mod 2 pi, below 4 pi + 4 in size, for T, x > 0.

    With x = f 2^k and f in [2^-1/2, 2^1/2], T log x = T log1p(f - 1) +
    k T ln 2, with log1p(f - 1) and ln 2 as hi/lo pairs; each large product
    is formed exactly and reduced.  The error that grows with T is that of
    log1p's lo part, at most 2.5e-18 T, where T fl(log x) errs by up to half
    an ulp of log x (8.9e-16 T at x = 4000).
    """
    k = np.rint(np.log2(x))
    hi, lo = _log1p_hi_lo(np.ldexp(x, -k.astype(int)) - 1.0)
    return (_mod_two_pi(*_two_product(T, hi)) + T * lo
            + _mod_two_pi(*_two_product(T, k * _LN2_HI)) + T * (k * _LN2_LO))


def E_balasubramanian(T: float) -> float:
    """E(T) by the double-sum formula over m, n <= K = sqrt(T/(2 pi)).

    First sum: sin(T log(n/m)) / (sqrt(mn) log(n/m)); second sum:
    sin(2 theta1 - T log(mn)) / (sqrt(mn) (log(T/(2 pi)) - log(mn)));
    both over m != n, doubled.  Both terms are symmetric in (m, n), so the
    sum runs over n > m once and counts four times.

    With a_n = T log n and b_m = 2 theta1 - a_m, the numerators are
    sin(a_n - a_m) and sin(b_m - a_n), which angle addition expands into
    sin a_n, cos a_n, sin b_m and cos b_m: 4K sines and cosines, and each
    row m is four dot products of its weights against sin a and cos a.
    a_n and 2 theta1 are reduced mod 2 pi exactly (``_t_log_mod_two_pi``),
    so the error left is that of log n and theta1 carried to about 2.5e-18
    relative.  The K^2/2 pairs' weights are formed in row tiles of at most
    ``_BALASU_TILE_PAIRS`` pairs whose sums are added in row order: O(K^2)
    work, O(K) memory.  K above ``BALASU_K_CAP`` raises
    ResourceLimitError.  Remainder O(log^2 T).
    """
    if not 0.0 < T < math.inf:
        raise InvalidArgumentError(f"E_balasubramanian needs finite T > 0, got {T!r}")
    K = math.sqrt(T / TWO_PI)
    if K > BALASU_K_CAP:
        raise ResourceLimitError(
            f"K={K:.0f} exceeds cap {BALASU_K_CAP} (O(K^2) double sum)")
    kn = rs_term_count(T)
    if kn < 2:
        return 0.0  # no pair m != n
    n = np.arange(1, kn + 1, dtype=np.float64)
    logn = np.log(n)
    rsn = 1.0 / np.sqrt(n)
    log_t = math.log(T / TWO_PI)
    a = _t_log_mod_two_pi(T, n)
    # 2 theta1 = T log T - T log(2 pi) - T - pi/4, each large part reduced
    two_th1 = (_t_log_mod_two_pi(T, T) - _mod_two_pi(*_two_product(T, _LOG_TWO_PI_HI))
               - T * _LOG_TWO_PI_LO - _mod_two_pi(T, 0.0) - math.pi / 4.0)
    b = two_th1 - a
    sin_a, cos_a, sin_b, cos_b = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
    sc = np.column_stack((sin_a, cos_a))
    # with (S, C) the dot products of row m's weights with (sin a, cos a), its
    # first sum is cos a_m S - sin a_m C and its second sin b_m C - cos b_m S
    coef = rsn[:, None] * np.stack((np.column_stack((cos_a, -sin_a)),
                                    np.column_stack((-cos_b, sin_b))))
    c_log = log_t - logn
    rows_max = min(kn - 1, math.isqrt(_BALASU_TILE_PAIRS))
    below = np.tri(rows_max, k=-1, dtype=bool)  # [i, j]: pair n = m0 + 1 + j <= m = m0 + i
    buf = np.empty(2 * min(max(_BALASU_TILE_PAIRS, kn - 1), (kn - 1) ** 2))  # the largest tile
    total = 0.0
    m0 = 0
    while m0 < kn - 1:
        cols = kn - 1 - m0  # n = m0 + 1 .. kn - 1 (0-based)
        r = min(cols, max(1, _BALASU_TILE_PAIRS // cols))
        rows, ns = slice(m0, m0 + r), slice(m0 + 1, kn)
        w = buf[:2 * r * cols].reshape(2, r, cols)
        np.subtract(logn[ns], logn[rows, None], out=w[0])
        np.subtract(c_log[rows, None], logn[ns], out=w[1])
        w[:, :, :r][:, below[:r, :r]] = np.inf
        np.divide(rsn[ns], w, out=w)
        total += float(np.sum(coef[:, rows] * (w.reshape(2 * r, cols) @ sc[ns]).reshape(2, r, 2)))
        m0 += r
    return 4.0 * total


# ---------------------------------------------------------------------------
# Hybrid remainder E* and its scans
# ---------------------------------------------------------------------------

def _csv_block(columns, row: str, lo: int) -> bytes:
    """Rows lo .. lo + SUM_BLOCK - 1 as CSV: one ``%`` over the row template."""
    cells = np.column_stack([col[lo:lo + SUM_BLOCK] for col in columns])
    return (row * len(cells) % tuple(cells.ravel().tolist())).encode()


def _csv_worker(send, columns, row: str, starts) -> None:
    """Body of a forked CSV worker: send each block at ``starts`` in turn."""
    for lo in starts:
        send(_csv_block(columns, row, lo))


def write_columns_csv(path, header: str, columns) -> None:
    """CSV of equal-length float64 arrays, shortest round-trip repr, ``SUM_BLOCK`` rows a step.

    Each block is formatted by one ``%`` over a row template; ``%r`` of a
    float is its repr.  ``_workers.deal`` alternates the blocks over up to
    ``_workers.WORKERS`` processes: the caller formats share 0, forked
    workers send the others back, and the caller writes every block in
    order, so the bytes do not depend on the worker count.  A worker's
    exception is raised here.  Columns of unequal length raise
    InvalidArgumentError before the file is opened.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise InvalidArgumentError(
            f"columns must have equal lengths, got {[len(col) for col in columns]}")
    row = ",".join(["%r"] * len(columns)) + "\n"
    starts = range(0, n, SUM_BLOCK)
    shares = _workers.deal(starts)
    with open(path, "wb") as fh, _workers.Forked() as forked:
        fh.write(f"{header}\n".encode())
        for share in shares[1:]:
            forked.start(_csv_worker, columns, row, share)
        for b, lo in enumerate(starts):
            w = b % len(shares)
            fh.write(forked.receive(w - 1) if w else _csv_block(columns, row, lo))


@dataclass(eq=False)
class ScanResult:
    """A grid of error-term samples plus summary statistics.

    ``delta_star_scaled`` holds 2 pi delta*(t/(2 pi)); the CSV column is
    named ``delta_star`` (header ``t,E,delta_star,E_star``).
    """

    t: np.ndarray
    E: np.ndarray
    delta_star_scaled: np.ndarray
    E_star: np.ndarray
    meta: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        write_columns_csv(path, "t,E,delta_star,E_star",
                          (self.t, self.E, self.delta_star_scaled, self.E_star))

    def summary(self) -> dict:
        out = dict(self.meta)
        out.update({
            "samples": int(self.t.size),
            "max_abs_E": float(np.max(np.abs(self.E))),
            "max_abs_delta_star_scaled": float(np.max(np.abs(self.delta_star_scaled))),
            "max_abs_E_star": float(np.max(np.abs(self.E_star))),
        })
        for k in (2, 4, 5):
            ratio = moment_scan_from_samples(self.t, self.E_star, k)[3]
            if ratio.size:
                out[f"moment_k{k}_top_ratio"] = float(ratio[-1])
        return out


def estar_scan(tmax: float, step: float = 0.25, *,
               table: DivisorTable | None = None) -> ScanResult:
    """Sample E, 2 pi delta*(t/2 pi) and E* on the uniform grid to tmax.

    If no table is supplied one is sieved to cover 4*tmax/(2 pi).  E*
    is stored exactly as E minus the scaled divisor term, bit for bit.
    """
    if not math.isfinite(tmax):
        raise InvalidArgumentError(f"estar_scan needs finite tmax, got {tmax!r}")
    if table is None:
        table = sieve_divisors(int(4 * tmax / TWO_PI) + 2)
    if 4 * tmax / TWO_PI > table.limit:
        raise OutOfRangeError("divisor table too small for delta*(tmax/(2 pi))")
    ts, e_vals, _ = E_grid(tmax, step)
    ds = np.zeros_like(ts)  # delta* is not defined at t = 0
    ds[1:] = TWO_PI * delta_star_grid(table, ts[1:] / TWO_PI)
    return ScanResult(t=ts, E=e_vals, delta_star_scaled=ds, E_star=e_vals - ds,
                      meta={"tmax": float(tmax), "step": float(step)})


def _moment_normalizer(T: float, k: int) -> float:
    if k == 2:
        return T ** (4.0 / 3.0) * math.log(T) ** 3
    if k == 4:
        return T ** (16.0 / 9.0)
    return T * T  # k == 5


def moment_scan_from_samples(ts: np.ndarray, e_star: np.ndarray, k: int):
    """Cumulative trapezoid of |E*|^k at dyadic checkpoints 2^j on a uniform grid from 0.

    Returns the columns (T, integral, normalizer, ratio), float64 arrays
    with one entry per checkpoint 2^MOMENT_J_MIN <= T <= ts[-1].
    """
    if k not in (2, 4, 5):
        raise InvalidArgumentError("moment order k must be one of {2, 4, 5}")
    if ts.size < 2:
        raise InvalidArgumentError("need at least two samples")
    step = float(ts[1] - ts[0])
    dt = np.diff(ts)
    if ts[0] != 0 or np.max(np.abs(dt - step)) > 1e-9 * max(1.0, float(ts[-1])):
        raise InvalidArgumentError("moment grid must be uniform and start at 0")
    if ts.size < 1000 or step > 1.0:
        warnings.warn(
            f"moment grid is sparse ({ts.size} samples, step {step}); "
            "moment ratios may be under-resolved", PrecisionWarning, stacklevel=2)
    g = np.abs(e_star) ** k
    cum = np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) * 0.5 * dt)])
    # frexp's exponent is floor(log2 x) + 1, so the last T is the largest 2^j <= tmax
    T = 2.0 ** np.arange(MOMENT_J_MIN, math.frexp(float(ts[-1]) + 1e-9)[1])
    integral = cum[np.minimum(np.rint(T / step).astype(np.int64), cum.size - 1)]
    normalizer = np.array([_moment_normalizer(x, k) for x in T.tolist()])
    return T, integral, normalizer, integral / normalizer


def fit_log_cubic(T: np.ndarray, integral: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares cubic in log T for integral/T^{4/3} at the checkpoints.

    Returns (coefficients highest power first, relative residuals).  The
    cubic's coefficients are fitted, never asserted; only the residual
    quality is checked downstream.
    """
    y = integral / T ** (4.0 / 3.0)
    lt = np.log(T)
    coef = np.polyfit(lt, y, 3)
    fitted = np.polyval(coef, lt)
    rel = np.abs(fitted - y) / np.maximum(np.abs(y), 1e-300)
    return coef, rel


# ---------------------------------------------------------------------------
# Smoothed short-interval mean square
# ---------------------------------------------------------------------------

def smooth_window(ts: np.ndarray, T: float, G: float) -> np.ndarray:
    """Weight that is 1 on [T-G, T+G], 0 outside [T-2G, T+2G], and the
    C-infinity collar exp(1 - 1/(1 - u^2)) between, u = (|t - T| - G)/G."""
    u = (np.abs(np.asarray(ts, dtype=float) - T) - G) / G
    w = np.where(u < 1.0, 1.0, 0.0)
    collar = (u > 0) & (u < 1.0)
    uc = u[collar]
    w[collar] = np.exp(1.0 - 1.0 / (1.0 - uc * uc))
    return w


def short_interval_ms(T: float, G: float) -> float:
    """Smoothed mean square integral f(t) |zeta(1/2+it)|^2 dt around T.

    f is ``smooth_window``: 1 on [T-G, T+G], decaying to 0 on the outer
    G-collars.  Admissible windows are 2 <= G <= T/2 (the theoretical
    T^eps <= G <= T^{1-eps} corridor at desk scale).  f |zeta|^2 goes to
    ``_gl_pieces`` on pieces of about 0.25 over [T-2G, T+2G];
    PrecisionError if that window collapses in double or the audit
    exceeds max(0.05, 1e-6 |value|).
    """
    if not (math.isfinite(T) and 2.0 <= G <= T / 2.0):
        raise InvalidArgumentError(f"need finite T and 2 <= G <= T/2, got T={T!r}, G={G!r}")
    a, b = T - 2.0 * G, T + 2.0 * G
    if not a < b:
        raise PrecisionError(f"window [T-2G, T+2G] collapses in double at T={T!r}, G={G!r}")
    n = math.ceil((b - a) / 0.25)
    width = (b - a) / n
    m = _panel_count(width, b)
    _check_nodes(n * m * GL_NODES)
    vals, worst = _gl_pieces(a + width * np.arange(n), width, m,
                             lambda ts: smooth_window(ts, T, G) * zeta_abs2_grid(ts))
    value, err = float(np.sum(vals)), worst * n
    if err > max(0.05, 1e-6 * abs(value)):
        raise PrecisionError(f"short-interval audit estimate {err:.3e} exceeds the tolerance")
    return value


# ---------------------------------------------------------------------------
# Empirical growth exponents
# ---------------------------------------------------------------------------

def empirical_exponent(ts, values) -> float:
    """Dyadic-block slope: least squares of log(max|value|) versus log t.

    ``ts`` and ``values`` are equal-length arrays.  Blocks are
    [2^j, 2^{j+1}); at least 8 nonempty blocks are required.  Returns the
    fitted slope, an exploratory estimate of the growth exponent
    inf{a : value << t^a}.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ts.shape != vals.shape:
        raise InvalidArgumentError("ts and values must have the same shape")
    ok = ts > 0
    if not ok.any():
        raise InvalidArgumentError("no positive abscissae")
    j, block = np.unique(np.floor(np.log2(ts[ok])).astype(int), return_inverse=True)
    peak = np.zeros(j.size)
    np.maximum.at(peak, block, np.abs(vals[ok]))
    if (keep := peak > 0).sum() < 8:
        raise InvalidArgumentError(f"need >= 8 nonempty dyadic blocks, got {keep.sum()}")
    return float(np.polyfit(np.log(2.0 ** (j[keep] + 0.5)), np.log(peak[keep]), 1)[0])
