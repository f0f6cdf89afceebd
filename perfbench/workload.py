"""One workload process: set-up, timed passes over CLI invocations, output checks.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``:

    python3 perfbench/workload.py --workload certify --setup-only
    python3 perfbench/workload.py --workload certify --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object.  Nothing from numpy,
scipy or ``hypergconv`` is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Each workload is a fixed list of CLI invocations (kind, config); one pass
# runs them all once.  Why each was chosen is in README.md.
WORKLOADS = {
    "nonsmooth-sweep": {
        "threads": 2,
        "lazy": [],
        "invocations": [
            ("sweep", {"kind": "lb-nonsmooth",
                       "base": {"r": 2, "players": ["polyak", "rgd"]},
                       "grid": {"T": [16, 32]}}),
        ],
    },
    "smooth-prox": {
        "threads": 1,
        "lazy": [],
        "invocations": [
            ("sweep", {"kind": "lb-smooth", "base": {},
                       "grid": {"T": [8, 16], "r": [2, 5]}}),
        ],
    },
    "cut-packing": {
        "threads": 1,
        "lazy": [],
        "invocations": [
            ("cut-game", {"d": 3, "r": 4.1, "eps": 0.12, "games": 2,
                          "max_rounds": 40}),
            ("cut-game", {"d": 3, "r": 6, "eps": 0.1, "games": 3,
                          "max_rounds": 40}),
        ],
    },
    "certify": {
        "threads": 1,
        "lazy": ["hypergconv.highprec"],
        "invocations": [
            ("polyak-worst", {"eps": 0.1, "r": 10}),
            ("polyak-worst", {"eps": 0.1, "r": 20}),
            ("interp", {"theta_grid": [0.1, 1.4, 14], "triples": 200}),
            ("zoo-validate", {"d": 8, "samples": 100}),
        ],
    },
}


def setup(workload: str) -> float:
    """Import what a CLI invocation of this workload needs; return seconds."""
    t0 = time.perf_counter()
    for name in ["hypergconv.cli", *WORKLOADS[workload]["lazy"]]:
        importlib.import_module(name)
    dt = time.perf_counter() - t0
    src = ROOT / "src"
    found = Path(sys.modules["hypergconv"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise RuntimeError(f"hypergconv imported from {found}, not from {src}")
    return dt


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def csv_body(text: str) -> tuple[list[dict], str]:
    """Rows of a summary CSV and its body with the ``runtime_s`` column removed.

    ``runtime_s`` is outside the CLI's determinism contract; every other
    byte of the body is inside it.
    """
    header, *lines = list(csv.reader(io.StringIO(text))) or [[]]
    keep = [i for i, name in enumerate(header) if name != "runtime_s"]
    body = "\n".join(",".join(line[i] for i in keep)
                     for line in [header, *lines])
    return [dict(zip(header, line)) for line in lines], body


def digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()


def check_invocation(rc: int, csv_text: str | None, expected: str | None
                     ) -> dict:
    """Attempted and failed rows of one CLI invocation.

    A row fails when its ``passed`` is not ``True``.  Every row fails when
    the invocation exits non-zero, writes no CSV, or writes a body whose
    digest differs from ``expected`` (when one is given).  A missing CSV
    counts as one attempted row.
    """
    if csv_text is None:
        return {"attempted": 1, "failed": 1, "digest": None}
    rows, body = csv_body(csv_text)
    d = digest(body)
    attempted = max(len(rows), 1)
    if rc != 0 or not rows or (expected is not None and d != expected):
        failed = attempted
    else:
        failed = sum(1 for r in rows if r["passed"] != "True")
    return {"attempted": attempted, "failed": failed, "digest": d}


def load_reference(workload: str, seed: int) -> list[str] | None:
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if ref is not None and len(ref) != len(WORKLOADS[workload]["invocations"]):
        raise RuntimeError(f"reference for {workload} seed {seed} is stale")
    return ref


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Runner:
    """Runs passes of one workload through ``hypergconv.cli.main``."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.invocations = WORKLOADS[workload]["invocations"]
        self.seed = seed
        self.work_dir = work_dir
        self.cli = sys.modules["hypergconv.cli"]
        work_dir.mkdir(parents=True, exist_ok=True)
        for i, (_, config) in enumerate(self.invocations):
            (work_dir / f"config{i}.json").write_text(json.dumps(config))

    def run_pass(self) -> tuple[float, list[int], list[str | None]]:
        """One pass; returns its wall time (inside ``cli.main`` only),
        exit codes and CSV texts."""
        wall, codes, texts = 0.0, [], []
        for i, (kind, _) in enumerate(self.invocations):
            out = self.work_dir / f"out{i}"
            shutil.rmtree(out, ignore_errors=True)
            argv = [kind, "--config", str(self.work_dir / f"config{i}.json"),
                    "--seed", str(self.seed), "--out", str(out)]
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
            wall += time.perf_counter() - t0
            summary = out / "summary.csv"
            codes.append(rc)
            texts.append(summary.read_text() if summary.exists() else None)
        return wall, codes, texts


class Gate:
    """Accumulates the correctness checks of every pass in a run.

    Each invocation's body is compared with the recorded reference for this
    seed when one exists, and otherwise with the run's first pass, so that
    reruns of the same seed must give identical bodies either way.
    """

    def __init__(self, reference: list[str] | None):
        self.reference = reference
        self.first: list[str | None] | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, codes: list[int], texts: list[str | None]) -> None:
        expected = self.reference or self.first or [None] * len(codes)
        digests = []
        for rc, text, want in zip(codes, texts, expected):
            res = check_invocation(rc, text, want)
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            digests.append(res["digest"])
        if self.first is None:
            self.first = digests


def machine(threads: int) -> dict:
    versions = {name: importlib.metadata.version(name)
                for name in ("numpy", "scipy", "mpmath")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "hypergconv_threads": threads}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> dict:
    """Set up, then run passes for ``seconds``; with ``trace`` one untraced
    pass comes first and the passes that follow are traced."""
    setup_s = setup(workload)
    runner = Runner(workload, seed, work_dir)
    gate = Gate(load_reference(workload, seed))
    out = {"setup_s": setup_s,
           "machine": machine(int(os.environ.get("HYPERGCONV_THREADS", "1")))}
    spans = None
    if trace:
        import tracer
        wall, codes, texts = runner.run_pass()
        gate.add(codes, texts)
        out["untraced_wall_s"] = wall
        spans = tracer.Tracer()
        spans.install()
    walls, layers = [], []
    t_start = time.perf_counter()
    try:
        # stop at the pass boundary nearest to ``seconds``
        while not walls or time.perf_counter() - t_start + walls[-1] / 2 < seconds:
            if spans is not None:
                spans.start_pass()
            wall, codes, texts = runner.run_pass()
            gate.add(codes, texts)
            walls.append(wall)
            if spans is not None:
                layers.append(spans.report(wall))
    finally:
        if spans is not None:
            spans.uninstall()
    out.update(walls=walls, attempted=gate.attempted, failed=gate.failed,
               peak_rss_mb=peak_rss_mb())
    if trace:
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload)}))
        return 0
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
