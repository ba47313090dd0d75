#!/usr/bin/env python3
"""Tour of the divisor remainder: three evaluation routes, one answer.

The summatory divisor function D(x) = sum_{n<=x} d(n) deviates from its
smooth main term x*(log x + 2*gamma - 1) by the remainder delta(x).  This
script sieves d(n), evaluates the remainder by table lookup, by the
hyperbola identity, and by the sieve-free sawtooth sum, and measures the
empirical growth exponent over dyadic blocks.
"""

import numpy as np

from zetadiv import (delta, delta_star, delta_star_alternating, delta_via_psi,
                     divisor_sum, empirical_exponent, hyperbola_divisor_sum,
                     sieve_divisors)
from zetadiv.divisor import delta_grid

LIMIT = 10**6

print(f"sieving d(n) up to {LIMIT:,} ...")
table = sieve_divisors(LIMIT)
print(f"d(12) = {table.values[12]}, d(997) = {table.values[997]} (997 is prime)")

print("\ndivisor sums, three exact integer routes:")
for x in (10, 1000, 999_983):
    a = divisor_sum(table, x)
    b = hyperbola_divisor_sum(x)
    print(f"  D({x}) = {a} (table) = {b} (hyperbola)  match={a == b}")

print("\nthe remainder and its sawtooth form -2 sum psi(x/n):")
for x in (100.0, 12345.6, 1e6):
    d1 = delta(table, x).delta
    d2 = delta_via_psi(x)
    print(f"  x={x:>9}: delta={d1:+9.4f}  psi-route={d2:+9.4f}  diff={d1 - d2:+.4f}")

print("\nalternating remainder delta*(x): defining combination vs arithmetic form")
for x in (0.25, 250.0, 12000.0):
    a = delta_star(table, x)
    b = delta_star_alternating(table, x)
    print(f"  x={x:>7}: {a:+.6f} vs {b:+.6f}  (equal to {abs(a - b):.1e})")

print("\ndelta* jumps by (-1)^m d(m)/2 each time 4x crosses an integer m:")
m = 1000
x0 = m / 4
jump = delta_star(table, x0 + 1e-9) - delta_star(table, x0 - 1e-9)
print(f"  at 4x={m}: observed jump {jump:+.4f}, d({m})/2 = {table.values[m] / 2}")

print("\nempirical growth exponent of |delta| over dyadic blocks:")
xs = np.exp(np.linspace(np.log(16), np.log(LIMIT), 3000))
slope = empirical_exponent(xs, delta_grid(table, xs))
print(f"  fitted slope {slope:.4f}  (proven < 1/3; conjectured 1/4)")
