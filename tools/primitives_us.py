"""Per-call cost of the hyperboloid primitives, the cut-game adversary, the
Moreau envelope's bracket and solve, and the value paths of ``certify``.

    python3 tools/primitives_us.py

Prints one row per primitive and one column per ambient size D = d + 1,
each entry in µs, the best of 5 repeats of n calls (n = 2000 up to
D = 65, 200 above).  The operands are seeded: two points at radius <= 2
from the base point of H^d and a unit tangent at the first, so two runs
time the same work.  ``_mink_x_rows`` is timed on 16 rows of that pair,
``sub_dist`` on the boundary of the half-space through the first point,
and ``HalfSpace(...)`` on a normal whose norm is already cached (the
constructor's own checks only).

A second table gives the ms/call of the cut-game adversary
(``cutting.adversary_respond``) against the first M = 128 and 2048 centers
of the d=3, r=4.1, eps=0.12 packing (seed 0), each call on a fresh state;
best of 5 repeats of 20 calls.  It times both kinds of round, and raises
if a round of the first kind records a nonzero count or one of the
second kind a zero:

- ``respond: zero in block 1`` queries the point at distance r from the
  base point along the first axis.  There some normal of the first block
  (index 0 at these seeds) grazes no ball, so the scan stops after that
  block.
- ``respond: full scan`` queries the first center.  Every normal through
  it grazes its ball, so no normal has zero hits and all 512 are formed.

At M = 128 one block holds all 512 normals, so both kinds form one block.

A third table times the Moreau envelope of a smoothed game (T=16, r=5,
played by Polyak, seed 0) at the first seeded sandwich point, drawn in
B(x_k, delta/2) for k = 0, 1, ... in turn, whose closed-form bracket is
wider than ``BRACKET_TOL``: ``MoreauEnvelope.bracket`` in µs/call (best of 5
repeats of 200 calls) and ``MoreauEnvelope.value`` there, which solves, in
ms/call (best of 5 repeats of 5 calls).

A fourth table times what the ``certify`` workload evaluates most:

- the ``interp`` interpolant (``construct_sufficient`` on six samples of
  dist(., z)^2/2 in H^3, built as ``interpolation.interp_checks`` builds
  it, seed 0): ``ShiftedMax.value`` and ``eval`` at a seeded point of
  B(x_0, 2), in µs/call (best of 5 repeats of 500 calls);
- one of its parts' ``PseudoAffine``, ``value`` against ``eval``, the same
  way;
- the mpmath replay's value (``highprec._replay_value``) at eps = 0.1,
  r = 20, in ms/call: the d = 62 iterates of one replay are recorded, then
  all of them are evaluated again (best of 5 repeats).

Run from anywhere; the package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import itertools
import sys
import timeit
from pathlib import Path

import numpy as np
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hypergconv import highprec  # noqa: E402
from hypergconv.cutting import (  # noqa: E402
    CutConfig, CutGameState, adversary_respond, new_game)
from hypergconv.hyperboloid import (  # noqa: E402
    HalfSpace, HPoint, _mink_x, _mink_x_rows, base_point, dist, exp, log, sub_dist)
from hypergconv.interpolation import InterpData, construct_sufficient  # noqa: E402
from hypergconv.oracles import BRACKET_TOL, OracleSample, fn_sqdist_point  # noqa: E402
from hypergconv.resisting import play, smooth_new  # noqa: E402
from hypergconv.sampling import (  # noqa: E402
    make_rng, random_point_in_ball, random_unit_tangent)

DIMS = (4, 9, 17, 33, 65, 513)
CANDIDATES = (128, 2048)


def calls(D: int) -> dict:
    rng = make_rng(0)
    x = random_point_in_ball(rng, base_point(D - 1), 2.0)
    y = random_point_in_ball(rng, base_point(D - 1), 2.0)
    u = random_unit_tangent(rng, x)
    rows_x, rows_y = np.tile(x.coords, (16, 1)), np.tile(y.coords, (16, 1))
    S = HalfSpace(x, u).boundary
    return {
        "_mink_x": lambda: _mink_x(x.coords, y.coords),
        "_mink_x_rows (16 rows)": lambda: _mink_x_rows(rows_x, rows_y),
        "dist": lambda: dist(x, y),
        "exp": lambda: exp(x, u),
        "log": lambda: log(x, y),
        "sub_dist": lambda: sub_dist(y, S),
        "HalfSpace(...)": lambda: HalfSpace(x, u),
    }


def respond_ms(m: int, zero_hit: bool, n: int = 20) -> float:
    cfg = CutConfig(d=3, r=4.1, eps=0.12, seed=0)
    cand = new_game(cfg).candidates[:m]
    if zero_hit:
        x = HPoint(np.array([np.cosh(cfg.r), np.sinh(cfg.r), 0.0, 0.0]))
    else:
        x = HPoint(cand[0])
    best = float("inf")
    for _ in range(5):
        states = [CutGameState(cfg, cand.copy()) for _ in range(n)]
        rngs = [make_rng(2 + i) for i in range(n)]
        t0 = timeit.default_timer()
        for state, rng in zip(states, rngs):
            adversary_respond(state, x, rng)
        best = min(best, timeit.default_timer() - t0)
        if any((s.history[0].hits == 0) != zero_hit for s in states):
            raise RuntimeError("a timed round is not of the kind it is named")
    return best / n * 1e3


def envelope_calls() -> tuple[float, float]:
    game = smooth_new(16, 5.0)
    play(game, "polyak", seed=0)
    rng = make_rng(0)
    for k in itertools.cycle(range(game.T)):
        env = game._smooth(game.running_max(k))
        p = random_point_in_ball(rng, game.history[k].x, game.delta / 2.0)
        lo, hi = env.bracket(p)
        if hi - lo > BRACKET_TOL:
            break
    bracket_us = min(timeit.repeat(lambda: env.bracket(p), number=200, repeat=5)) / 200 * 1e6
    value_ms = min(timeit.repeat(lambda: env.value(p), number=5, repeat=5)) / 5 * 1e3
    return bracket_us, value_ms


def certify_calls() -> dict:
    rng = make_rng(0)
    x0 = base_point(3)
    z = exp(x0, random_unit_tangent(rng, x0).scaled(0.7))
    ps = [random_point_in_ball(rng, z, 0.45) for _ in range(6)]
    f = construct_sufficient(InterpData(
        [OracleSample(F, p, g) for p, (F, g) in zip(ps, map(fn_sqdist_point(z).eval, ps))],
        mu=1.0))
    pa = f.parts[0][0].parts[1][1]
    x = random_point_in_ball(rng, x0, 2.0)
    return {
        "interpolant value": lambda: f.value(x),
        "interpolant eval": lambda: f.eval(x),
        "PseudoAffine value": lambda: pa.value(x),
        "PseudoAffine eval": lambda: pa.eval(x),
    }


def replay_value_ms() -> float:
    args = []
    real = highprec._replay_value
    highprec._replay_value = lambda *a: args.append(a) or real(*a)
    try:
        highprec.worst_trajectory_report(0.1, 20.0)
    finally:
        highprec._replay_value = real
    with mp.workdps(highprec.DPS):
        best = min(timeit.repeat(lambda: [real(*a) for a in args], number=1, repeat=5))
    return best / len(args) * 1e3


def main() -> None:
    table = {}
    for D in DIMS:
        n = 2000 if D <= 65 else 200
        for name, f in calls(D).items():
            best = min(timeit.repeat(f, number=n, repeat=5)) / n
            table.setdefault(name, []).append(best * 1e6)
    print(f"{'µs/call, best of 5':<24}" + "".join(f"{f'D={D}':>9}" for D in DIMS))
    for name, row in table.items():
        print(f"{name:<24}" + "".join(f"{t:9.2f}" for t in row))
    print()
    print(f"{'ms/call, best of 5':<24}" + "".join(f"{f'M={m}':>9}" for m in CANDIDATES))
    for name, zero_hit in (("respond: zero in block 1", True),
                           ("respond: full scan", False)):
        print(f"{name:<24}" + "".join(f"{respond_ms(m, zero_hit):9.2f}" for m in CANDIDATES))
    print()
    bracket_us, value_ms = envelope_calls()
    print("smoothed game T=16, r=5, at a wide bracket, best of 5")
    print(f"{'MoreauEnvelope.bracket':<24}{bracket_us:9.2f} µs/call")
    print(f"{'MoreauEnvelope.value':<24}{value_ms:9.2f} ms/call (solves)")
    print()
    print("certify: interp interpolant (six parts, H^3) and replay, best of 5")
    for name, f in certify_calls().items():
        print(f"{name:<24}{min(timeit.repeat(f, number=500, repeat=5)) / 500 * 1e6:9.2f} µs/call")
    print(f"{'replay value r=20':<24}{replay_value_ms():9.2f} ms/call")


if __name__ == "__main__":
    main()
