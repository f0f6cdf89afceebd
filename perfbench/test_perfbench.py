"""Tests of the benchmark itself: the correctness gate and the trace.

    python3 -m pytest -q perfbench/test_perfbench.py

The trace tests run one traced pass of every workload (about 40 s).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

# the reference digests were recorded with single-threaded BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workload as wl  # noqa: E402

COLUMNS = ["kind", "case", "measured", "bound", "passed", "runtime_s"]


def summary(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(COLUMNS)
    w.writerows(rows)
    return buf.getvalue()


GOOD = [["interp", "grid", "0.5", "0", "True", "0.120"],
        ["interp", "values", "1e-12", "1e-08", "True", "0.310"]]


def test_runtime_column_is_outside_the_digest():
    ref = wl.digest(wl.csv_body(summary(GOOD))[1])
    slower = [row[:-1] + ["9.999"] for row in GOOD]
    res = wl.check_invocation(0, summary(slower), ref)
    assert res == {"attempted": 2, "failed": 0, "digest": ref}


def test_tampered_body_or_failing_row_counts_as_failure():
    ref = wl.digest(wl.csv_body(summary(GOOD))[1])
    tampered = [GOOD[0], ["interp", "values", "2e-12", "1e-08", "True", "0.310"]]
    assert wl.check_invocation(0, summary(tampered), ref)["failed"] == 2
    failing = [GOOD[0], GOOD[1][:4] + ["False", "0.310"]]
    assert wl.check_invocation(1, summary(failing), None)["failed"] == 2
    assert wl.check_invocation(0, summary(failing), None)["failed"] == 1
    assert wl.check_invocation(2, None, ref) == {
        "attempted": 1, "failed": 1, "digest": None}


def test_rerun_must_repeat_the_first_pass_without_a_reference():
    gate = wl.Gate(reference=None)
    gate.add([0], [summary(GOOD)])
    gate.add([0], [summary([GOOD[0], GOOD[0]])])
    assert (gate.attempted, gate.failed) == (4, 2)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


# spans each workload is meant to exercise, and spans it must not reach
EXERCISED = {
    "nonsmooth-sweep": ["hyperboloid.HalfSpace", "hyperboloid.sub_dist",
                        "resisting.construct", "resisting.GameOracle.eval",
                        "resisting.finalize", "resisting.certificate",
                        "oracles.ShiftedMax.eval", "solvers.polyak_sgd",
                        "solvers.rgd"],
    "smooth-prox": ["oracles.MoreauEnvelope.eval", "oracles.MoreauEnvelope.value",
                    "oracles.slsqp", "oracles.polish", "hyperboloid.dist",
                    "hyperboloid.exp", "hyperboloid.log", "hyperboloid.ptransport",
                    "hyperboloid.sub_dist", "resisting.construct",
                    "sampling.random_unit_tangent"],
    "cut-packing": ["cutting.new_game", "cutting.adversary_respond"],
    "certify": ["highprec.worst_trajectory_report", "resisting.worst_build",
                "resisting.WorstFunctionOracle.eval", "hyperboloid.gspan",
                "hyperboloid.dist", "solvers.polyak_sgd",
                "interpolation.obstruction_certificate",
                "interpolation.check_necessary",
                "interpolation.construct_sufficient",
                "interpolation.minimal_function"],
}
UNREACHED = {
    "nonsmooth-sweep": ["oracles.slsqp", "oracles.polish",
                        "oracles.MoreauEnvelope.value", "cutting.new_game"],
    "smooth-prox": ["cutting.new_game", "highprec.worst_trajectory_report"],
    "cut-packing": ["hyperboloid.dist", "hyperboloid.exp", "hyperboloid.log",
                    "hyperboloid.sub_dist", "hyperboloid.HalfSpace",
                    "oracles.slsqp", "resisting.construct"],
    "certify": ["cutting.new_game", "resisting.construct", "oracles.slsqp"],
}
COVERAGE_GAP = 0.02


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload at seed 0, twice for smooth-prox."""
    out = {}
    saved = os.environ.get("HYPERGCONV_THREADS")
    try:
        for name, spec in wl.WORKLOADS.items():
            os.environ["HYPERGCONV_THREADS"] = str(spec["threads"])
            wl.setup(name)
            runner = wl.Runner(name, 0, tmp_path_factory.mktemp(name))
            t = tracer.Tracer()
            t.install()
            try:
                reports = []
                for _ in range(2 if name == "smooth-prox" else 1):
                    t.start_pass()
                    wall, codes, texts = runner.run_pass()
                    reports.append(t.report(wall))
            finally:
                t.uninstall()
            out[name] = (reports, codes, texts)
    finally:
        if saved is None:
            os.environ.pop("HYPERGCONV_THREADS", None)
        else:
            os.environ["HYPERGCONV_THREADS"] = saved
    return out


def test_traced_outputs_match_the_reference(traced):
    for name, (_, codes, texts) in traced.items():
        ref = wl.load_reference(name, 0)
        assert ref is not None
        for rc, text, want in zip(codes, texts, ref):
            assert wl.check_invocation(rc, text, want)["failed"] == 0, name


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_spans_reach_what_the_workload_exercises(traced, name):
    rep = traced[name][0][0]
    for span in EXERCISED[name]:
        assert rep[f"{span}.calls"] > 0, span
    for span in UNREACHED[name]:
        assert rep[f"{span}.calls"] == 0, span


def test_every_span_is_reached_somewhere(traced):
    for metric in tracer.metric_units():
        if metric.endswith(".calls"):
            assert any(r[0][0][metric] > 0 for r in traced.values()), metric


def test_self_times_cover_each_thread(traced):
    for name, (reports, _, _) in traced.items():
        assert 0 <= reports[0]["trace.coverage_gap"] < COVERAGE_GAP, name
    sweep = traced["nonsmooth-sweep"][0][0]
    assert sweep["cli.sweep.cells"] == 2
    assert sweep["cli.sweep.wait_s"] > 0


def test_counts_repeat_between_passes(traced):
    first, second = traced["smooth-prox"][0]
    _, repeat = tracer.summarize([first, second], 0.0)
    assert repeat
