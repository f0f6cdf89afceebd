"""Batch experiment driver: JSON config in, CSV summary + JSON transcript out.

Exit codes: 0 all checks passed, 1 at least one check failed (the failing
row is printed), 2 unusable config.  Reruns with the same config and seed
produce byte-identical CSV bodies except for the runtime column, which is
excluded from the determinism contract.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import cutting, interpolation, oracles, resisting
from .oracles import CHORD_ALLOWANCE, SANDWICH_ALLOWANCE, worst_chord_slope
from .sampling import make_rng

KINDS = ["lb-nonsmooth", "lb-smooth", "polyak-worst", "cut-game", "interp",
         "zoo-validate", "sweep"]

CSV_COLUMNS = ["kind", "case", "measured", "bound", "passed", "runtime_s"]


def _row(kind, case, measured, bound, passed, runtime):
    return {
        "kind": kind,
        "case": case,
        "measured": f"{measured:.17g}",
        "bound": f"{bound:.17g}",
        "passed": str(bool(passed)),
        "runtime_s": f"{runtime:.3f}",
    }


# ---------------------------------------------------------------------------
# experiment runners: each returns (rows, transcript)
# ---------------------------------------------------------------------------


def _game_rows(kind, game_factory, players, seed, extra_checks=None):
    rows, transcript = [], {}
    for name in players:
        t0 = time.perf_counter()
        game = game_factory()
        resisting.play(game, name, seed)
        cert, replay = game.certificate(), game.replay_residual()
        extra_ok, extra_info = extra_checks(game, seed) if extra_checks else (True, {})
        dt = time.perf_counter() - t0
        rows.append(_row(kind, f"player={name}", cert["min_recorded_gap"], cert["gap_bound"],
                         not game.failed_checks(cert, replay) and extra_ok, dt))
        transcript[name] = {
            "certificate": cert,
            "replay_residual": replay,
            "chosen": game.chosen,
            **extra_info,
        }
    return rows, transcript


def run_lb_nonsmooth(params, seed):
    T, r = int(params["T"]), float(params["r"])
    players = params.get("players", ["polyak", "rgd", "random"])
    return _game_rows("lb-nonsmooth", lambda: resisting.nonsmooth_new(T, r),
                      players, seed)


def run_lb_smooth(params, seed):
    T, r = int(params["T"]), float(params["r"])
    players = params.get("players", ["polyak"])
    n_sandwich = int(params.get("sandwich_samples", 20))
    n_chords = int(params.get("chord_samples", 12))

    def extra(game, seed):
        rng = make_rng(seed + 1)
        L = game.smoothness
        worst_sandwich = game.worst_sandwich(rng, n_sandwich)
        f, _, _ = game.finalize()
        worst_slope = worst_chord_slope(f, rng, game.xref, game.r / 2.0,
                                        game.lam, n_chords)
        ok = worst_sandwich <= SANDWICH_ALLOWANCE and worst_slope <= L + CHORD_ALLOWANCE
        return ok, {"worst_sandwich": worst_sandwich,
                    "worst_chord_slope": worst_slope, "L": L}

    return _game_rows("lb-smooth", lambda: resisting.smooth_new(T, r),
                      players, seed, extra_checks=extra)


def run_polyak_worst(params, seed):
    if "highprec" in params:
        raise ValueError("polyak-worst takes no 'highprec' key: the mpmath "
                         "replay runs exactly when r > 10")
    eps, r = float(params["eps"]), float(params["r"])
    use_hp = r > 10.0
    t0 = time.perf_counter()
    if use_hp:
        # imported here so that ``import hypergconv.cli`` never loads mpmath
        from . import highprec as replay
    else:
        replay = resisting
    rep = replay.worst_trajectory_report(eps, r)
    dt = time.perf_counter() - t0
    rows = [_row("polyak-worst", f"eps={eps},r={r},{case}", measured, bound,
                 passed, 0.0 if i else dt)
            for i, (case, measured, bound, passed) in enumerate(rep.checks(r))]
    transcript = {"d": rep.d, "highprec": use_hp, "ladder_err": rep.max_ladder_dist,
                  "radius_err": rep.max_radius_err, "step_err": rep.max_step_err,
                  "gap_err": rep.max_gap_err, "min_gap": rep.min_gap}
    return rows, transcript


def run_cut_game(params, seed):
    d, r = int(params.get("d", 3)), float(params.get("r", 6.0))
    eps = params.get("eps", 0.1)
    games = int(params.get("games", 5))
    max_rounds = int(params.get("max_rounds", 40))
    players = {"random": cutting.random_ball_player, "center": cutting.repeat_center_player}
    player_name = params.get("player", "random")
    if player_name not in players:
        raise ValueError(f"unknown cut-game player {player_name!r}")
    rows, games_t = [], []
    total_rounds = quarter_ok_rounds = 0
    all_ok = True
    for i in range(games):
        t0 = time.perf_counter()
        cfg = cutting.CutConfig(d=d, r=r, eps=eps, seed=seed + i,
                                max_rounds=max_rounds)
        tr = cutting.play_game(cfg, players[player_name](cfg))
        dt = time.perf_counter() - t0
        ok = tr.state.verify_consistency() and tr.replay_ok()
        nrounds = len(tr.state.history)
        nquarter = sum(1 for rec in tr.state.history if rec.quarter_ok)
        total_rounds += nrounds
        quarter_ok_rounds += nquarter
        all_ok &= ok
        rows.append(_row("cut-game", f"seed={seed + i}",
                         nquarter / max(nrounds, 1), 0.25, ok, dt))
        games_t.append({"seed": seed + i, "packing_size": tr.packing_size,
                        "floor": tr.floor, "rounds": tr.rounds_survived,
                        "exhausted": tr.exhausted,
                        "quarter_violations": tr.quarter_violations,
                        "target_rounds": cfg.target_rounds()})
    frac = quarter_ok_rounds / max(total_rounds, 1)
    rows.append(_row("cut-game", "aggregate-quarter-law", frac,
                     cutting.QUARTER_LAW_SHARE,
                     cutting.quarter_law_holds(frac) and all_ok, 0.0))
    return rows, {"games": games_t, "quarter_fraction": frac}


def _timed_rows(kind, checks):
    """Rows of the (case, measured, bound, passed) a check generator yields,
    each timed from the end of the one before."""
    rows = []
    t0 = time.perf_counter()
    for case, measured, bound, passed in checks:
        t1 = time.perf_counter()
        rows.append(_row(kind, case, measured, bound, passed, t1 - t0))
        t0 = t1
    return rows


def run_interp(params, seed):
    lo, hi, n = params.get("theta_grid", [0.1, 1.4, 14])
    rows = _timed_rows("interp", interpolation.interp_checks(
        make_rng(seed), np.linspace(lo, hi, int(n)), int(params.get("triples", 100))))
    return rows, {"rows": len(rows)}


def run_zoo_validate(params, seed):
    rows = _timed_rows("zoo-validate", oracles.zoo_checks(
        make_rng(seed), int(params.get("d", 4)), int(params.get("samples", 200))))
    return rows, {"suites": len(rows)}


RUNNERS = {
    "lb-nonsmooth": run_lb_nonsmooth,
    "lb-smooth": run_lb_smooth,
    "polyak-worst": run_polyak_worst,
    "cut-game": run_cut_game,
    "interp": run_interp,
    "zoo-validate": run_zoo_validate,
}


def run_sweep(params, seed):
    kind = params["kind"]
    if kind not in RUNNERS:
        raise ValueError(f"sweep over unknown kind {kind!r}")
    base = dict(params.get("base", {}))
    grid = params.get("grid", {})
    keys = sorted(grid)
    rows, transcript = [], []
    # empty grid means an empty sweep (header-only CSV)
    cells = list(itertools.product(*(grid[k] for k in keys))) if keys else []
    threads = int(os.environ.get("HYPERGCONV_THREADS", "1"))

    def one(idx_cell):
        idx, cell = idx_cell
        cell_params = dict(base)
        cell_params.update(dict(zip(keys, cell)))
        r, t = RUNNERS[kind](cell_params, seed + idx)
        label = ",".join(f"{k}={v}" for k, v in zip(keys, cell))
        for row in r:
            row["case"] = f"{label}|{row['case']}" if label else row["case"]
        return idx, r, {"cell": label, "transcript": t}

    jobs = list(enumerate(cells))
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            results = sorted(ex.map(one, jobs), key=lambda t: t[0])
    else:
        results = [one(j) for j in jobs]
    for _, r, t in results:
        rows.extend(r)
        transcript.append(t)
    return rows, {"cells": transcript}


def run(kind: str, config: dict, seed: int | None, out_dir: Path) -> int:
    params = dict(config)
    eff_seed = int(seed if seed is not None else params.pop("seed", 0))
    params.pop("seed", None)
    runner = run_sweep if kind == "sweep" else RUNNERS[kind]
    rows, transcript = runner(params, eff_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "summary.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    with open(out_dir / "transcript.json", "w") as fh:
        json.dump({"kind": kind, "seed": eff_seed, "params": params,
                   "transcript": transcript}, fh, indent=1, default=str)
    failures = [r for r in rows if r["passed"] != "True"]
    for r in failures:
        print(f"FAIL {r['kind']} {r['case']}: measured={r['measured']} "
              f"bound={r['bound']}", file=sys.stderr)
    print(f"{kind}: {len(rows) - len(failures)}/{len(rows)} checks passed; "
          f"summary at {csv_path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hypergconv",
        description="desk-scale experiments for g-convex lower-bound machinery")
    ap.add_argument("kind", choices=KINDS)
    ap.add_argument("--config", required=True, help="JSON parameter file")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default="hypergconv-out")
    args = ap.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return run(args.kind, config, args.seed, Path(args.out))
    except KeyError as e:
        print(f"config error: missing parameter {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
