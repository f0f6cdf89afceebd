"""The cutting-planes game: halfspace oracles against a hidden target.

The adversary seeds a separated packing of candidate targets, then answers
each query with the sampled hyperplane grazing the fewest candidate balls,
keeping the richer side.  Quantitative round counts only bite at radii far
beyond desk scale, so the run reports survival statistics and verifies the
structural invariants exactly.
"""

import sys
from pathlib import Path

import numpy as np

from hypergconv import cli
from hypergconv.cutting import CutConfig, play_game, random_ball_player

cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=0, max_rounds=15)
print(f"d={cfg.d}, r={cfg.r}, eps={cfg.eps}: candidate balls of radius {cfg.ball_radius}")
print(f"(large-radius theory would need r >= 1280 (d-1) log d = "
      f"{1280*(cfg.d-1)*np.log(cfg.d):.0f}; desk-scale runs report, never assert)")

tr = play_game(cfg, random_ball_player(cfg))
print(f"\npacking: {tr.packing_size} candidates "
      f"(counting floor at theorem scale: {tr.floor:.1f})")
print(f"rounds played: {tr.rounds_survived}; adversary exhausted: {tr.exhausted}")
print(f"per-round survivors: {[rec.survivors for rec in tr.state.history]}")
print(f"quarter-law violations: {tr.quarter_violations}")
print(f"full-history consistency of survivors: {tr.state.verify_consistency()}")
print(f"selected target replays every round: {tr.replay_ok()}")

print("\n== the same game's checks, written by the CLI's runner ==")
sys.exit(cli.run("cut-game", {"d": cfg.d, "r": cfg.r, "eps": cfg.eps, "games": 1,
                              "max_rounds": cfg.max_rounds, "player": "random"},
                 cfg.seed, Path("hypergconv-out/05_cutting_planes_game")))
