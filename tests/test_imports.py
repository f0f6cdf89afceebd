"""Which modules a kind loads, checked in fresh processes: pytest has already
imported scipy into this one.  See README, "Import cost"."""

import json
import os
import subprocess
import sys
import textwrap

import hypergconv

SRC = os.path.dirname(os.path.dirname(hypergconv.__file__))
SCIPY_PARTS = ["scipy.optimize", "scipy.spatial", "scipy.special", "scipy.sparse"]


def fresh(code, cwd, threads=1):
    """Run ``code`` in a new interpreter; return the JSON of its last line."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC, "HYPERGCONV_THREADS": str(threads)},
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_package_loads_no_scipy_or_mpmath(tmp_path):
    loaded = fresh("""
        import json, sys, hypergconv
        print(json.dumps([m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")]))
    """, tmp_path)
    assert loaded == []


def test_scipy_free_kinds_leave_scipy_unloaded(tmp_path):
    runs = [("lb-nonsmooth", {"T": 4, "r": 1.0, "players": ["polyak", "random"]}),
            ("polyak-worst", {"eps": 0.17, "r": 10.0}),
            ("interp", {"theta_grid": [0.2, 1.2, 3], "triples": 10}),
            ("zoo-validate", {"d": 3, "samples": 40})]
    res = fresh(f"""
        import json, sys
        from hypergconv import cli
        codes = []
        for i, (kind, cfg) in enumerate({runs!r}):
            with open(f"cfg{{i}}.json", "w") as fh:
                json.dump(cfg, fh)
            codes.append(cli.main([kind, "--config", f"cfg{{i}}.json", "--seed", "1",
                                   "--out", f"out{{i}}"]))
        print(json.dumps([codes, [m for m in {SCIPY_PARTS!r} if m in sys.modules]]))
    """, tmp_path)
    assert res == [[0, 0, 0, 0], []]


def test_oracles_optimize_is_scipy_optimize(tmp_path):
    # the attribute the tracer rebinds, and through it every prox solve
    res = fresh("""
        import json, sys
        from hypergconv import oracles
        before = "scipy.optimize" in sys.modules
        import scipy.optimize
        same = oracles.optimize is scipy.optimize
        oracles.optimize = "stand-in"
        print(json.dumps([before, same, oracles._optimize()]))
    """, tmp_path)
    assert res == [False, True, "stand-in"]


def test_first_touch_from_two_threads(tmp_path):
    res = fresh("""
        import json, threading
        from hypergconv import oracles
        gate, got = threading.Barrier(2), []

        def touch():
            gate.wait()
            got.append(oracles._optimize().minimize.__name__)

        threads = [threading.Thread(target=touch) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print(json.dumps(got))
    """, tmp_path)
    assert res == ["minimize", "minimize"]


def test_cold_sweep_same_body_on_two_threads(tmp_path):
    # both cells reach their first prox solve at about the same time
    sweep = {"kind": "lb-smooth", "grid": {"T": [2, 4]},
             "base": {"r": 2.0, "sandwich_samples": 4, "chord_samples": 4}}
    code = f"""
        import csv, json, sys
        from hypergconv import cli
        with open("cfg.json", "w") as fh:
            json.dump({sweep!r}, fh)
        code = cli.main(["sweep", "--config", "cfg.json", "--seed", "3", "--out", "out"])
        with open("out/summary.csv") as fh:
            rows = [{{k: v for k, v in r.items() if k != "runtime_s"}}
                    for r in csv.DictReader(fh)]
        print(json.dumps([code, "scipy.optimize" in sys.modules, rows]))
    """
    one, two = (tmp_path / "one", tmp_path / "two")
    one.mkdir()
    two.mkdir()
    serial = fresh(code, one, threads=1)
    pooled = fresh(code, two, threads=2)
    assert serial[:2] == [0, True] and len(serial[2]) > 0
    assert pooled == serial
