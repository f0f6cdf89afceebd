"""Batch experiment driver: JSON config in, CSV summary + JSON transcript out.

``RUNNERS`` passes each kind's config to the check generator of the module
that judges its rows (README, "What each CLI row checks"); this module only
times, formats and writes them.  Exit codes: 0 all checks passed, 1 at least
one check failed (the failing row is printed), 2 unusable config, including a
refused value or range (``DomainError``, ``RangeLimitError``).  Reruns with the
same config and seed produce byte-identical CSV bodies except for the runtime
column, which is excluded from the determinism contract.
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
from .hyperboloid import DomainError, RangeLimitError
from .sampling import make_rng

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


def _runner(kind, checks, count=None):
    """The (params, seed) -> (rows, transcript) runner of a kind, consuming
    its generator ``checks(params, seed, transcript)``; a kind whose generator
    fills no transcript records its row count under ``count``."""
    def run_kind(params, seed):
        transcript = {}
        rows = _timed_rows(kind, checks(params, seed, transcript))
        if count:
            transcript[count] = len(rows)
        return rows, transcript
    return run_kind


def _interp_checks(p, seed, t):
    lo, hi, n = p.get("theta_grid", [0.1, 1.4, 14])
    return interpolation.interp_checks(make_rng(seed), np.linspace(lo, hi, int(n)),
                                       int(p.get("triples", 100)))


# each kind's config keys and their defaults, passed to its module's checks
RUNNERS = {
    "lb-nonsmooth": _runner("lb-nonsmooth", lambda p, seed, t: resisting.game_checks(
        resisting.nonsmooth_new, int(p["T"]), float(p["r"]),
        p.get("players", ["polyak", "rgd", "random"]), seed, t)),
    "lb-smooth": _runner("lb-smooth", lambda p, seed, t: resisting.game_checks(
        resisting.smooth_new, int(p["T"]), float(p["r"]), p.get("players", ["polyak"]),
        seed, t, n_sandwich=int(p.get("sandwich_samples", 20)),
        n_chords=int(p.get("chord_samples", 12)))),
    "polyak-worst": _runner("polyak-worst", lambda p, seed, t: resisting.ladder_checks(
        float(p["eps"]), float(p["r"]), t, p.keys())),
    "cut-game": _runner("cut-game", lambda p, seed, t: cutting.cut_game_checks(
        int(p.get("d", 3)), float(p.get("r", 6.0)), p.get("eps", 0.1),
        int(p.get("games", 5)), int(p.get("max_rounds", 40)),
        p.get("player", "random"), seed, t)),
    "interp": _runner("interp", _interp_checks, "rows"),
    "zoo-validate": _runner("zoo-validate", lambda p, seed, t: oracles.zoo_checks(
        make_rng(seed), int(p.get("d", 4)), int(p.get("samples", 200))), "suites"),
}
KINDS = [*RUNNERS, "sweep"]


def run_sweep(params, seed):
    kind = params["kind"]
    if kind not in RUNNERS:
        raise DomainError(f"sweep over unknown kind {kind!r}")
    base = params.get("base", {})
    if not isinstance(base, dict):
        raise DomainError("sweep 'base' is not an object")
    grid = params.get("grid", {})
    keys = sorted(grid)
    for k in keys:
        if not isinstance(grid[k], list):
            raise DomainError(f"sweep grid axis {k!r} is not a list")
    # empty grid means an empty sweep (header-only CSV)
    cells = list(itertools.product(*(grid[k] for k in keys))) if keys else []
    threads = int(os.environ.get("HYPERGCONV_THREADS", "1"))

    def one(idx, cell):
        r, t = RUNNERS[kind]({**base, **dict(zip(keys, cell))}, seed + idx)
        label = ",".join(f"{k}={v}" for k, v in zip(keys, cell))
        for row in r:
            row["case"] = f"{label}|{row['case']}" if label else row["case"]
        return r, {"cell": label, "transcript": t}

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one, range(len(cells)), cells))  # in cell order
    else:
        results = [one(idx, cell) for idx, cell in enumerate(cells)]
    return [row for r, _ in results for row in r], {"cells": [t for _, t in results]}


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
    except (KeyError, DomainError, RangeLimitError) as e:
        missing = "missing parameter " if isinstance(e, KeyError) else ""
        print(f"config error: {missing}{e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
