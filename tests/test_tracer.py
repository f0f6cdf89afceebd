"""The benchmark's tracer still attaches to every name it wraps.

``perfbench/tracer.py`` rebinds module attributes and class methods by
name, so a refactor that deletes or moves a traced name breaks the traced
benchmark run; this test catches that in the ordinary test suite.
"""

import concurrent.futures
import importlib.util
import sys
from pathlib import Path

from scipy import optimize

from hypergconv import base_point, cli, hyperboloid, oracles, resisting
from hypergconv.hyperboloid import HalfSpace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # leave no bytecode cache beside the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced_names():
    """What the tracer rebinds, as the package defines it."""
    return {
        "hyperboloid.dist": hyperboloid.dist,
        "resisting.dist": resisting.dist,
        "HalfSpace.__post_init__": HalfSpace.__dict__["__post_init__"],
        "ShiftedMax.eval": oracles.ShiftedMax.__dict__["eval"],
        "_GameBase.finalize": resisting._GameBase.__dict__["finalize"],
        "oracles.optimize": oracles.optimize,
        "cli.concurrent": cli.concurrent,
        "cli.RUNNERS": dict(cli.RUNNERS),
    }


def test_tracer_installs_counts_and_restores(monkeypatch):
    originals = traced_names()
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install()
        assert hyperboloid.dist is not originals["hyperboloid.dist"]
        x = base_point(2)
        hyperboloid.dist(x, x)
        assert tracer.report(1.0)["hyperboloid.dist.calls"] == 1
    finally:
        tracer.uninstall()
    assert traced_names() == originals
    assert oracles.optimize is optimize and cli.concurrent.futures is concurrent.futures
