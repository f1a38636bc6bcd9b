#!/usr/bin/env python3
"""Metric graphs with rational edge lengths and divisors at rational points.

Ranks are computed on the model itself: metric Dhar burning moves chips
across whole segments between the special points in one exact step, so a
point at denominator 10^6 costs what a midpoint costs, and a second
computation at twice the scale re-checks the value. The interesting
phenomenon: interior points of a banana graph carry positive rank on a
whole middle interval, so the metric graph has infinitely many
Weierstrass points even though the underlying graph has none.
"""

import time
from fractions import Fraction as F

import chipfire as cf

print("=" * 66)
print("A point at denominator 10^6")
print("=" * 66)

b4 = cf.QGraph.unit(cf.banana_graph(4))
for j in (333333, 333334):
    p = b4.point(0, F(j, 10**6))
    started = time.perf_counter()
    value = cf.q_rank(b4, cf.QDivisor(b4, {p: 3}))
    elapsed = (time.perf_counter() - started) * 1000
    print(f"banana(4), 3 chips at {j}/10^6 along one edge: rank {value}"
          f" in {elapsed:.1f} ms")
print("(a unit model would cut every edge into 10^6 pieces)")
print()

print("=" * 66)
print("Ranks of rational divisors")
print("=" * 66)

midpoint = b4.point(0, F(1, 2))
d = cf.QDivisor(b4, {midpoint: 3})
print("banana(4), 3 chips at the midpoint of one edge:", cf.q_rank(b4, d))
print("same divisor, all lengths doubled:",
      cf.q_rank(b4.scaled(2), cf.QDivisor(b4.scaled(2), {b4.scaled(2).point(0, F(1)): 3})))
print()

print("the scan along one edge (denominator 12):")
for offset, value in cf.norine_scan(4, 12):
    bar = "#" * (value + 1)
    inside = F(1, 3) <= offset <= F(2, 3)
    print(f"  x = {str(offset):5s} rank {value} {bar}{'   <- middle third' if inside and value >= 1 else ''}")
print()

print("=" * 66)
print("Divisors of piecewise-linear functions")
print("=" * 66)

# A tent over one edge: slope +1 then -1, integer slopes throughout.
path1 = cf.QGraph.unit(cf.path_graph(2))
tent = cf.PLFunction(path1, {0: [(0, 0), (F(1, 2), F(1, 2)), (1, 0)]})
print("tent function divisor:", cf.divisor_of_function(path1, tent))
print("(sources of slope get negative weight, the peak collects it)")
print()

print("=" * 66)
print("Metric rank identity and semicontinuity")
print("=" * 66)

rep = cf.metric_rr_check(b4, d)
print(f"r(D) - r(K - D) = {rep.lhs} and deg(D) + 1 - g = {rep.rhs}: ok={rep.equal}")

report = cf.semicontinuity_probe(b4, d, eps=F(1, 6), samples=10, seed=2)
print(f"10 rational perturbation probes around the midpoint: base rank "
      f"{report.base_rank}, violations {len(report.violations)}")
print("(the rank may drop nearby but can never stay higher along a")
print(" shrinking sequence of perturbations)")
