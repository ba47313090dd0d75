"""zetadiv: critical-line zeta evaluation, divisor remainders, and their error terms.

The package cross-validates every quantity it computes through at least
two independent routes: divisor remainders against sieve, hyperbola and
sawtooth evaluations; truncated Voronoi-type expansions against exact
remainders; the Riemann-Siegel engine against an Euler-Maclaurin oracle;
and the mean-square error term E(T) through direct quadrature, the
Atkinson formula and the Balasubramanian double sum.  An exact-rational
exponent-pair calculus supplies the growth exponents these objects are
conjectured and proven to obey.
"""

from .divisor import (EULER_GAMMA, DeltaValue, DivisorTable, delta, delta_grid,
                      delta_star, delta_star_alternating, delta_star_grid,
                      delta_via_psi, divisor_sum, hyperbola_divisor_sum, load_table,
                      main_term, psi, save_table, sieve_divisors)
from .errors import (CacheError, InvalidArgumentError, OutOfRangeError,
                     PrecisionError, PrecisionWarning, ResourceLimitError,
                     ZetaDivError)
from .error_terms import (AtkinsonEval, E_atkinson, E_balasubramanian, E_direct,
                          E_grid, ScanResult, ZetaMeanSquare,
                          empirical_exponent, estar_scan, fit_log_cubic,
                          moment_scan_from_samples, short_interval_ms)
from .exppairs import (ExponentPair, SearchResult, apply_A, apply_B, is_process_reachable,
                       parse_fraction, search_optimal, seed_pairs, write_frontier_csv)
from .voronoi import (VoronoiSum, delta_series_target, delta_star_series_target,
                      voronoi_delta, voronoi_delta_star)
from .zeta import (chi_factor, convexity_exponent, rs_term_count, rs_theta, rs_z_grid,
                   theta1, z_function, zeta_abs2_grid, zeta_em)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
