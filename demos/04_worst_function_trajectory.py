"""The worst function for span-respecting subgradient methods.

dist(., x*) plus a fan of scaled half-space distances hides the minimizer:
the committed subgradients keep each iterate inside a shrinking ladder of
spheres, so Polyak descent reproduces the predicted points exactly and its
gap stays above r/2 for ~ zeta(r)/(32 eps^2) queries.
"""

import numpy as np

from hypergconv import dist
from hypergconv.highprec import worst_trajectory_report
from hypergconv.resisting import a2_check, worst_build, worst_oracle
from hypergconv.solvers import polyak_sgd

eps, r = 0.15, 10.0
inst = worst_build(eps, r)
print(f"eps={eps}, r={r}: ladder of d = {inst.d} points, Lipschitz M = {inst.M:.3f}")
f = worst_oracle(inst)
trace = polyak_sgd(f, fstar=0.0, x0=inst.ladder[0], s0=inst.r, T=inst.T)

print("\nk   gap f(x_k)      predicted r_k   dist(x_k, y_k)")
for k, (s, rk) in enumerate(zip(trace.samples, inst.radii)):
    print(f"{k:2d}  {trace.gaps[k]:<14.9f}  {rk:<14.9f}  {dist(s.x, inst.ladder[k]):.2e}")

print(f"\nall gaps >= r/2 = {r/2}: {min(trace.gaps) >= r/2 - 1e-9}")
print(f"certified radii match ladder radii to "
      f"{max(abs(a-b) for a, b in zip(trace.radii, inst.radii)):.2e}")
rep = a2_check(inst, trace)
print(f"span condition (queries stay in the revealed span): {rep.a1_all}")
print(f"half-space condition (queries stay feasible):       {rep.a2_all}")

print('\n== radius 20 needs extended precision (README, "Why radius costs precision") ==')
hp = worst_trajectory_report(eps, 20.0)
print(f"d = {hp.d}; trajectory deviation {hp.max_ladder_dist:.1e}; "
      f"min gap {hp.min_gap:.3f} >= 10")
