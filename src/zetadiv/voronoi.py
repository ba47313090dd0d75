"""Truncated Voronoi-type expansions of the divisor remainders.

The plain remainder admits, for 2 <= N << x,

    delta(x) ~ (1/(pi sqrt(2))) x^{1/4} sum_{n<=N} d(n) n^{-3/4}
               cos(4 pi sqrt(n x) - pi/4),

with truncation error O_eps(x^{1/2+eps} N^{-1/2}); the alternating
remainder delta*(x) has the same expansion with an extra (-1)^n.  The
implied constants are not pinned down here: tests bound the residuals
against the exact sieve evaluators empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divisor import DivisorTable, block_sum, delta, delta_star
from .errors import InvalidArgumentError, OutOfRangeError

_COEF = 1.0 / (math.pi * math.sqrt(2.0))


@dataclass(frozen=True)
class VoronoiSum:
    """A truncated expansion value at x with N terms."""

    x: float
    N: int
    value: float
    term_count: int


def voronoi_term_count(x: float, N: float) -> int:
    """Check finite x >= 2 and N >= 2; return the term count floor(N)."""
    if not 2 <= N < math.inf:
        raise InvalidArgumentError(f"truncation N must be finite and >= 2, got {N}")
    if not 2 <= x < math.inf:
        raise InvalidArgumentError(f"x must be finite and >= 2, got {x}")
    return int(math.floor(N))


def _voronoi(table: DivisorTable, x: float, N: int, alternating: bool) -> VoronoiSum:
    n_max = voronoi_term_count(x, N)
    if n_max > table.limit:
        raise OutOfRangeError(f"N={N} exceeds divisor table limit {table.limit}")
    x = float(x)

    def terms(n):
        phase = 4.0 * math.pi * np.sqrt(n * x) - math.pi / 4.0
        t = table.values[n] * n ** (-0.75) * np.cos(phase)
        return t * np.where(n % 2 == 0, 1.0, -1.0) if alternating else t

    value = _COEF * x ** 0.25 * block_sum(n_max, terms)
    return VoronoiSum(x=x, N=int(N), value=value, term_count=n_max)


def voronoi_delta(table: DivisorTable, x: float, N: int) -> VoronoiSum:
    """Truncated expansion of the divisor remainder delta(x)."""
    return _voronoi(table, x, N, alternating=False)


def voronoi_delta_star(table: DivisorTable, x: float, N: int) -> VoronoiSum:
    """Truncated expansion of the alternating remainder delta*(x)."""
    return _voronoi(table, x, N, alternating=True)


def delta_series_target(table: DivisorTable, x: float) -> float:
    """The value the delta expansion actually converges to at x.

    Off the integers this is delta(x) itself.  At integer x the remainder
    jumps by d(x) and the expansion, like any Fourier-type series at a
    jump, converges to the midpoint delta(x) - d(x)/2.  Comparing the
    truncated sum against this target keeps residual-decay measurements
    meaningful at integer abscissae.
    """
    val = delta(table, x).delta
    if float(x) == math.floor(x):
        val -= 0.5 * float(table.values[int(x)])
    return val


def delta_star_series_target(table: DivisorTable, x: float) -> float:
    """The value the delta* expansion converges to at x.

    delta*(x) jumps by (-1)^m d(m)/2 where m = 4x crosses an integer, so
    at those abscissae the series limit is the half-jump-adjusted
    delta*(x) - (-1)^m d(m)/4.
    """
    val, m4 = delta_star(table, x), 4.0 * float(x)
    if m4 == math.floor(m4):
        val -= (-1) ** int(m4) * 0.25 * float(table.values[int(m4)])
    return val
