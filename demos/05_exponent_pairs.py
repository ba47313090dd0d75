#!/usr/bin/env python3
"""The exact exponent-pair calculus: processes, exponents, exhaustive search.

Everything here is exact rational arithmetic.  The A and B processes map
proven pairs to proven pairs; theta_div = (kappa+lambda)/(2+2kappa) is the
growth exponent both the divisor remainder and E(T) inherit, and
theta_zeta = theta_div/2 the critical-line one.  The improvement
criterion over the classical 1/3 exponent is 3*lambda + kappa < 2.
"""

from fractions import Fraction

from zetadiv import ExponentPair, apply_A, apply_B, search_optimal, seed_pairs

print("seed pairs and their exponents:")
for p in seed_pairs():
    print(f"  ({p.kappa}, {p.lam}): theta_div={p.theta_div} "
          f"theta_zeta={p.theta_zeta} beats-1/3={p.beats_one_third}")

std = ExponentPair(Fraction(1, 2), Fraction(1, 2))
print("\nprocess walk from the standard pair (1/2, 1/2):")
p = std
for step in "AAAB":
    p = apply_A(p) if step == "A" else apply_B(p)
    print(f"  {p.word:>4} -> ({p.kappa}, {p.lam})   theta_div={p.theta_div}")
print("  (the word AAAB lands on the cited pair (11/30, 16/30), theta 27/82)")

print("\nexhaustive breadth-first search over process words:")
for depth in (1, 4, 7, 10):
    res = search_optimal(depth)
    b = res.best
    print(f"  depth {depth:>2}: best theta_div = {b.theta_div} "
          f"(~{float(b.theta_div):.6f}) at ({b.kappa}, {b.lam}) "
          f"word={b.word or 'seed'}; {res.explored} pairs explored")

res = search_optimal(10)
print(f"\nPareto frontier in (kappa, lambda) holds {len(res.frontier)} pairs "
      "(the closure is an antichain: no pair dominates another)")

lind = ExponentPair(Fraction(0), Fraction(1, 2))
print(f"\nhypothetical Lindelof pair (0, 1/2): theta_div = {lind.theta_div} "
      "(the conjectural 1/4 for both remainders)")
print("literature note: the Bombieri-Iwaniec method yields exponents such as "
      "32/205 (zeta) and 131/416 (remainders)")
print("outside this A/B calculus; they are quoted constants here, never outputs.")
