"""Benchmark of the ``hypergconv`` CLI: one workload per run.

    python3 perfbench/run.py --workload smooth-prox --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from this checkout's ``src``.
Set-up is timed in several fresh processes and the workload passes run in
one more process, all with BLAS pinned to one thread.  The last line of
standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workload as wl  # noqa: E402  (stdlib-only at import)

SETUP_PROBES = 4      # fresh processes that only time set-up
TIME_LIMIT_S = 170.0  # whole run, set-up probes included


def child_env(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    threads = min(wl.WORKLOADS[workload]["threads"], os.cpu_count() or 1)
    env["HYPERGCONV_THREADS"] = str(threads)
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run workload.py with ``args``; return the JSON of its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_end = time.monotonic() + TIME_LIMIT_S
    env = child_env(workload)
    setups = [run_child(["--workload", workload, "--setup-only"], env,
                        t_end - time.monotonic())["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = run_child(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(int(trace))],
                    env, t_end - time.monotonic())
    res["setups"] = setups + [res["setup_s"]]
    return res


def result(res: dict, trace: bool) -> dict:
    """The final JSON line: correctness counts and the metrics of the mode."""
    correct = res["failed"] == 0
    if trace:
        import tracer
        layers, repeat = tracer.summarize(res["layers"], res["untraced_wall_s"])
        correct &= repeat
        units = tracer.metric_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
            "wall_s": {"value": min(res["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "checks_passed_frac": {
                "value": 1.0 - res["failed"] / res["attempted"], "unit": "frac"},
        }
    return {"correct": bool(correct), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception so that subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = result(res, bool(args.trace))
    print("machine " + json.dumps(res["machine"]))
    print(f"{args.workload} seed={args.seed} passes={len(res['walls'])} "
          f"setup_s={statistics.median(res['setups']):.4f} s "
          f"wall_s={min(res['walls']):.4f} s "
          f"peak_rss_mb={res['peak_rss_mb']:.1f} MB "
          f"checks_failed_frac={res['failed'] / res['attempted']:.4f} "
          f"({res['failed']}/{res['attempted']} rows)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
