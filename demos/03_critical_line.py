#!/usr/bin/env python3
"""Evaluating zeta on the critical line: oracle, engine, and cross-checks.

The Euler-Maclaurin route is the slow exact oracle; the Riemann-Siegel
main sum with two correction coefficients is the fast scan engine.  Their
difference obeys the classical ~0.05 t^(-5/4) envelope of the truncated
correction series.  The functional-equation factor chi closes the loop:
zeta(s) = chi(s) zeta(1-s) to near machine precision.
"""

import math

import numpy as np

from zetadiv import (chi_factor, convexity_exponent, rs_theta, rs_z_grid,
                     z_function, zeta_em)

print("classical values from the Euler-Maclaurin oracle:")
print(f"  zeta(2)   = {zeta_em(2.0).real:.15f}   (pi^2/6 = {math.pi**2 / 6:.15f})")
print(f"  zeta(1/2) = {zeta_em(0.5).real:.13f}")

print("\nfunctional equation residual at s = 0.25 + 30i:")
s = 0.25 + 30j
print(f"  |zeta(s) - chi(s) zeta(1-s)| = {abs(zeta_em(s) - chi_factor(s) * zeta_em(1 - s)):.2e}")

print("\nHardy Z(t) and the first two critical-line zeros:")
for lo, hi in ((14.0, 14.2), (20.9, 21.1)):
    a, b = lo, hi
    fa = z_function(a)
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = z_function(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    print(f"  sign change of Z in [{lo}, {hi}] -> zero near t = {0.5 * (a + b):.6f}")

print("\nRiemann-Siegel vs oracle error, against the t^(-5/4) envelope:")
for t in (300.0, 1000.0, 3000.0, 10000.0):
    zrs = float(rs_z_grid(np.array([t]))[0])
    w = np.exp(1j * rs_theta(t)) * zeta_em(0.5 + 1j * t,
                                           terms=math.ceil(1.75 * t) + 50,
                                           correction_order=20)
    err = abs(zrs - float(w.real))
    print(f"  t={t:>7.0f}: |Z_rs - Z_em| = {err:.2e}   envelope 0.053 t^-5/4 = "
          f"{0.053 * t**-1.25:.2e}")

print("\nconvexity exponents (1-sigma)/2 across the strip:")
for sigma in (0.0, 0.5, 1.0):
    print(f"  sigma={sigma}: {convexity_exponent(sigma)}")
