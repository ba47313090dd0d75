#!/usr/bin/env python3
"""The hybrid remainder E*(t) = E(t) - 2 pi delta*(t/(2 pi)) and its moments.

E and the scaled alternating divisor remainder track each other closely;
their difference E* is (in mean square) an order smaller than either, a
fact quantified by moment integrals against the T^{4/3} log^3 T (k=2),
T^{16/9} (k=4) and T^2 (k=5) scales.
"""

import numpy as np

from zetadiv import estar_scan, fit_log_cubic, moment_scan_from_samples, sieve_divisors

TMAX = 4000.0
table = sieve_divisors(int(4 * TMAX / (2 * np.pi)) + 2)
print(f"scanning E, 2 pi delta*(t/2 pi) and E* on [0, {TMAX:g}] at step 0.25 ...")
scan = estar_scan(TMAX, 0.25, table=table)

m = scan.t >= 10
print(f"  max |E|  = {np.max(np.abs(scan.E)):7.2f}")
print(f"  max |2 pi delta*| = {np.max(np.abs(scan.delta_star_scaled)):7.2f}")
print(f"  max |E*| = {np.max(np.abs(scan.E_star)):7.2f}")
frac = np.mean(np.abs(scan.E_star[m]) < np.maximum(np.abs(scan.E[m]),
                                                   np.abs(scan.delta_star_scaled[m])))
print(f"  |E*| is the smallest of the three on {100 * frac:.1f}% of the grid")

print("\nmoment ratios at dyadic checkpoints (bounded ratios = the scales fit):")
moments = {k: moment_scan_from_samples(scan.t, scan.E_star, k) for k in (2, 4, 5)}
for k, (T, _, _, ratio) in moments.items():
    line = "  k=%d: " % k + "  ".join(f"T=2^{int(np.log2(t))}:{r:.3g}"
                                      for t, r in zip(T[-5:].tolist(), ratio[-5:].tolist()))
    print(line)

coef, rel = fit_log_cubic(*moments[2][:2])
print("\ncubic-in-log-T fit of the k=2 moment over T^{4/3}:")
print(f"  coefficients (highest first): {np.round(coef, 4)}")
print(f"  relative residuals at the top checkpoints: "
      f"{np.round(rel[-4:] * 100, 2)} %")
print("  (the cubic's coefficients are fitted, never asserted)")
