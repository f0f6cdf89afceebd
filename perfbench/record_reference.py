"""Record the CSV-body digests that the benchmark's correctness gate expects.

    python3 perfbench/record_reference.py --seeds 0-15

Runs one pass of every workload per seed and writes ``reference.json``.
Record only at a commit whose certified numbers are known to be right: a
later run whose body differs counts every row of that invocation as failed.
Refuses to record a pass with a failing row or a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workload as wl  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=[0],
                    help="inclusive range such as 0-15")
    args = ap.parse_args(argv)
    ref: dict[str, dict[str, list[str]]] = {}
    work_root = HERE.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for name, spec in wl.WORKLOADS.items():
            os.environ["HYPERGCONV_THREADS"] = str(min(spec["threads"],
                                                       os.cpu_count() or 1))
            wl.setup(name)
            for seed in args.seeds:
                runner = wl.Runner(name, seed, Path(tmp) / f"{name}-{seed}")
                _, codes, texts = runner.run_pass()
                checks = [wl.check_invocation(rc, text, None)
                          for rc, text in zip(codes, texts)]
                if any(c["failed"] for c in checks):
                    print(f"{name} seed {seed}: failing rows, not recorded",
                          file=sys.stderr)
                    return 1
                ref.setdefault(name, {})[str(seed)] = [c["digest"] for c in checks]
                print(f"{name} seed {seed}: recorded", flush=True)
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
