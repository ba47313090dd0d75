#!/usr/bin/env python3
"""E(T), the mean-square error term of the critical line, three ways.

Direct quadrature of Z(t)^2, the Atkinson explicit formula (alternating
divisor sum with ar-sinh phases plus a short logarithmic sum), and the
Balasubramanian double sum all carry an O(log^2 T) remainder; a single
fitted constant C covers the pairwise deviations at every height tested.
The quadrature is one cumulative pass: E_direct(T) is the point T of an
E grid, so one grid to 5000 gives all five heights.
"""

import math

from zetadiv import E_atkinson, E_balasubramanian, E_grid, ZetaMeanSquare, sieve_divisors

table = sieve_divisors(6000)
ts, es, _ = E_grid(5000.0, 0.25)  # E at 0, 0.25, ..., 5000

print("      T    E_direct   E_atkinson  (sigma1, sigma2, N')     E_balasu   "
      "dev/log^2 T")
C = 0.0
for T in (100.0, 300.0, 1000.0, 3000.0, 5000.0):
    ed = float(es[round(T / 0.25)])  # E_direct(T), bit for bit
    ea = E_atkinson(T, table=table)
    eb = E_balasubramanian(T)
    l2 = math.log(T) ** 2
    d1, d2 = abs(ed - ea.value) / l2, abs(ed - eb) / l2
    C = max(C, d1, d2)
    print(f"  {T:6.0f}  {ed:+9.4f}  {ea.value:+9.4f}  ({ea.sigma1:+8.3f}, "
          f"{ea.sigma2:+7.3f}, {ea.N_prime:6.1f})  {eb:+9.4f}   "
          f"{d1:.4f} / {d2:.4f}")
print(f"\nshared fitted remainder constant C = {C:.4f} (acceptance cap: 20)")

print("\nthe quadrature cache is incremental: extending [0, 5000] to [0, 5500]")
integ = ZetaMeanSquare()  # chunks of 0.25
integ.extend_to(5000.0)
before = integ.error_estimate(5000.0)
integ.extend_to(5500.0)  # integrates only the 2000 new chunks
print(f"  accumulated error estimate {before:.2e} at 5000, "
      f"{integ.error_estimate(5500.0):.2e} at 5500")
