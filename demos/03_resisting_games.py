"""The adversarial lower-bound games, nonsmooth and smoothed.

The adversary lazily picks orthogonal hyperplane directions as it is queried;
after T queries it commits to a fixed max-of-distances function that agrees
with every answer it gave, certifies its minimizer by the law of cosines, and
guarantees every recorded gap exceeds r/(2 zeta(r) sqrt(T)).
"""

import sys
from pathlib import Path

from hypergconv import cli
from hypergconv.resisting import GameOracle, nonsmooth_new, smooth_new
from hypergconv.solvers import polyak_sgd

T, r = 8, 2.0

print("== nonsmooth game vs Polyak subgradient descent ==")
game = nonsmooth_new(T, r)
oracle = GameOracle(game)
# the adversary's optimum -a is known before play starts
trace = polyak_sgd(oracle, fstar=-game.a, x0=game.xref, s0=r, T=T)
f, xstar, fstar = game.finalize()
cert = game.certificate()
print(f"shift a = {game.a:.6f}, slack per piece delta = {game.delta:.6f}")
print(f"certified gap floor:   {game.gap_bound():.6f}")
print(f"smallest recorded gap: {cert['min_recorded_gap']:.6f}")
print(f"dist(x_ref, x*) = {cert['dist_xref_xstar']:.12f} (target {r})")
print(f"f(x*) - f*       = {cert['f_at_xstar'] - fstar:+.2e}")
print(f"x* on every chosen hyperplane: worst residual {cert['max_subdist_xstar']:.2e}")
print(f"law-of-cosines certificate residual: {cert['max_lawcos_residual']:.2e}")
replay = game.replay_residual()
print(f"replaying the final function reproduces the transcript to {replay:.2e}")

print("\n== smoothed game (Moreau envelope responses) ==")
sgame = smooth_new(4, 1.0)
soracle = GameOracle(sgame)
polyak_sgd(soracle, fstar=-sgame.a, x0=sgame.xref, s0=1.0, T=4)
sf, sxstar, sfstar = sgame.finalize()
scert = sgame.certificate()
print(f"smoothing width lam = {sgame.lam:.6f}; smoothness L = {sgame.smoothness:.1f}")
print(f"certified gap floor (L r^2 / T^2) / (16 zeta^2): {sgame.gap_bound():.6f}")
print(f"smallest recorded gap: {scert['min_recorded_gap']:.6f}")
print(f"same minimizer as the nonsmooth twin: f(x*) - f* = "
      f"{scert['f_at_xstar'] - sfstar:+.2e}")

print("\n== the nonsmooth game's checks, written by the CLI's runner ==")
sys.exit(cli.run("lb-nonsmooth", {"T": T, "r": r, "players": ["polyak"]}, 0,
                 Path("hypergconv-out/03_resisting_games")))
