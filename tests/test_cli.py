import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypergconv
from hypergconv import GeometryViolation, cli, cutting, oracles, resisting
from hypergconv.solvers import CertificateError

ROW_DOCS = (Path(__file__).resolve().parents[1] / "README.md").read_text() \
    .split("## What each CLI row checks")[1].split("\n## ")[0]


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_rows(out_dir):
    with open(out_dir / "summary.csv") as fh:
        return list(csv.DictReader(fh))


def strip_runtime(rows):
    return [{k: v for k, v in r.items() if k != "runtime_s"} for r in rows]


KIND_CONFIGS = [
    ("lb-nonsmooth", {"T": 4, "r": 1.0, "players": ["polyak", "random"]}),
    ("lb-smooth", {"T": 2, "r": 1.0, "sandwich_samples": 4, "chord_samples": 4}),
    ("polyak-worst", {"eps": 0.17, "r": 5.0}),
    ("cut-game", {"d": 3, "r": 4.0, "eps": 0.12, "games": 1, "max_rounds": 5}),
    ("interp", {"theta_grid": [0.2, 1.2, 3], "triples": 10}),
    ("zoo-validate", {"d": 3, "samples": 40}),
    ("polyak-worst", {"eps": 0.17, "r": 12.0}),
]


@pytest.mark.parametrize("kind,cfg", KIND_CONFIGS)
def test_kinds_pass(tmp_path, kind, cfg):
    out = tmp_path / "out"
    code = cli.main([kind, "--config", write_cfg(tmp_path, cfg),
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows and all(r["passed"] == "True" for r in rows)
    assert (out / "transcript.json").exists()
    # every row's fixed case name opens a code span of README, "What each CLI
    # row checks": "eps=0.17,r=5.0,steps" is "steps", "gconvex-max" is
    # "gconvex-" and "player=polyak" is "player=<"
    for r in rows:
        name = re.sub(r"^(\w+=[^,]*,)+", "", r["case"])
        name = re.sub(r"^gconvex-.*", "gconvex-", name)
        name = re.sub(r"^(\w+)=[\w.]+$", r"\1=<", name)
        assert "`" + name in ROW_DOCS, name


# SHA-256 of each summary.csv body without its runtime_s column, and of
# transcript.json, at seed 1: the KIND_CONFIGS runs and one sweep
PINNED_BYTES = [
    ("b8e3681252ddbe2651b77f2e1c148abdaec3920b7a85cffe64fa39fc46e5e5ad",
     "5f27beef1126b0c81acf19a69fd13a67e575fb8b015415f43f87d1483b2491b9"),
    ("e550aa054464599df8bf8111c292d4072835b7e2c6936ab83053f9aa30602ba4",
     "15e175edcad73227678a37b3719d00d19cfa3a2a928f7280707cd4692fb74fb8"),
    ("339d9ce006358c9f0f8c8adbe60db47a82642bdecbdeab95c7b348179f6ec28d",
     "fd9a6ec7b1a302e955ab625beab0c0efacdb924c6e51674556999fc6c0b614a7"),
    ("36a07e5add90991b679ea59fada3a531010f1df7d7e5ddf4f3112eaf7f2eb030",
     "3ccb43f7e8b2bfac379364bce8acab678639671ce67e7cb00f3ffc5f0d680731"),
    ("b12c4a0cf584f7218db16a449c5b692d12347f2772666e83517050bc732be0f6",
     "58b1c881b96b1100e1676b19e83ae80eb29000902f71b54bb2dfed7bedb28936"),
    ("f237db4d096a853cd7ba71be411610e1f582740123e5c904893c5562e8ec667a",
     "85efe88bcb0316fcffdc13231cd04c6a6a5efaa43fb7dad95535e19e22caf175"),
    ("e2426a5a9686f9e8f19308f42439144c5ad2f960453cc8a602d167b1790bd8f7",
     "a3405695330067a34a869f61d31b277d16ebaf36b725761307e3f2c927ef3d52"),
    ("1acc3873ad7f22e6c91366f378e7e0f9c254a94d5c1ea373cd9639ac1b820838",
     "9adddc0bc6408e911f3b5b358020171ee999e10fd101c4a5405b04608b880b9e"),
]
SWEEP = ("sweep", {"kind": "lb-nonsmooth", "base": {"r": 2.0, "players": ["polyak", "rgd"]},
                   "grid": {"T": [4, 8]}})


@pytest.mark.parametrize("kind,cfg,pinned", [
    (kind, cfg, pinned) for (kind, cfg), pinned in zip(KIND_CONFIGS + [SWEEP], PINNED_BYTES)])
def test_output_bytes_pinned(tmp_path, kind, cfg, pinned):
    out = tmp_path / "out"
    assert cli.main([kind, "--config", write_cfg(tmp_path, cfg),
                     "--seed", "1", "--out", str(out)]) == 0
    # runtime_s is the last column and a bare number, so it is the text
    # after each line's last comma
    lines = (out / "summary.csv").read_bytes().splitlines()[1:]
    body = b"\n".join(line.rsplit(b",", 1)[0] for line in lines)
    assert (hashlib.sha256(body).hexdigest(),
            hashlib.sha256((out / "transcript.json").read_bytes()).hexdigest()) == pinned


def test_polyak_worst_refuses_highprec_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"eps": 0.17, "r": 8.0, "highprec": True})
    assert cli.main(["polyak-worst", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "highprec" in capsys.readouterr().err


# refused values and out-of-range parameters exit 2, with no traceback
@pytest.mark.parametrize("kind,cfg,message", [
    ("cut-game", {"d": 3, "r": 3.0, "games": 1, "player": "bogus"}, "bogus"),
    ("lb-nonsmooth", {"T": 4, "r": 1.0, "players": ["newton"]}, "newton"),
    ("lb-nonsmooth", {"T": 1, "r": 1.0}, "T = d >= 2"),
    ("lb-smooth", {"T": 4, "r": 1e6}, "radius must lie in"),
    ("polyak-worst", {"eps": 0.5, "r": 5.0}, "eps must lie in"),
    ("sweep", {"kind": "newton", "grid": {"T": [4]}}, "unknown kind"),
    ("sweep", {"kind": "interp", "grid": {"triples": 5}}, "'triples' is not a list"),
    ("sweep", {"kind": "interp", "base": [1], "grid": {"triples": [5]}},
     "'base' is not an object"),
    ("sweep", {"kind": "lb-nonsmooth", "base": {"r": 1.0, "players": "polyak"},
               "grid": {"T": [4]}}, "'players' must be a list"),
])
def test_config_refusals_exit_two(tmp_path, capsys, kind, cfg, message):
    assert cli.main([kind, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# a broken invariant or certificate mid-run is a failure, not a config error
@pytest.mark.parametrize("error", [GeometryViolation, CertificateError])
def test_errors_mid_run_propagate(tmp_path, monkeypatch, error):
    def broken(game, name, seed):
        raise error("forced")

    monkeypatch.setattr(resisting, "play", broken)
    with pytest.raises(error, match="forced"):
        cli.main(["lb-nonsmooth", "--config", write_cfg(tmp_path, {"T": 4, "r": 1.0}),
                  "--out", str(tmp_path / "o")])


def test_nan_envelope_value_fails_sandwich(monkeypatch):
    # np.max carries the NaN into the row; the builtin max would drop it
    monkeypatch.setattr(oracles.MoreauEnvelope, "bracket",
                        lambda self, x: (float("nan"), float("nan")))
    rows, _ = cli.RUNNERS["zoo-validate"]({"d": 3, "samples": 5}, 0)
    row = next(r for r in rows if r["case"] == "moreau-sandwich")
    assert row["passed"] == "False" and row["measured"] == "nan"


# the gconvex rows pass a sampled subgradient gap down to the shared slack
@pytest.mark.parametrize("gap, passed", [
    (oracles.GCONVEX_SLACK, "True"),
    (np.nextafter(oracles.GCONVEX_SLACK, -np.inf), "False")])
def test_zoo_gconvex_slack(monkeypatch, gap, passed):
    monkeypatch.setattr(oracles, "subgradient_slack", lambda Fx, g, Fy, v: gap)
    rows, _ = cli.RUNNERS["zoo-validate"]({"d": 3, "samples": 5}, 0)
    gconvex = [r for r in rows if r["case"].startswith("gconvex-")]
    assert len(gconvex) == 4
    for r in gconvex:
        assert (r["measured"], r["bound"]) == (f"{gap:.17g}", f"{oracles.GCONVEX_SLACK:.17g}")
        assert r["passed"] == passed


def test_cut_game_player_names(tmp_path):
    cfg = {"d": 3, "r": 3.0, "eps": 0.12, "games": 1, "max_rounds": 3}
    with pytest.raises(ValueError, match="bogus"):
        cli.RUNNERS["cut-game"]({**cfg, "player": "bogus"}, 0)
    rows, transcript = cli.RUNNERS["cut-game"]({**cfg, "player": "center"}, 0)
    assert len(rows) == 2 and transcript["games"][0]["rounds"] > 0


# the lb-smooth row passes a sampled sandwich up to the shared allowance
@pytest.mark.parametrize("worst, passed", [
    (oracles.SANDWICH_ALLOWANCE, "True"),
    (np.nextafter(oracles.SANDWICH_ALLOWANCE, np.inf), "False")])
def test_lb_smooth_sandwich_allowance(monkeypatch, worst, passed):
    monkeypatch.setattr(resisting.SmoothGame, "worst_sandwich",
                        lambda self, rng, n: worst)
    rows, transcript = cli.RUNNERS["lb-smooth"]({"T": 2, "r": 1.0, "chord_samples": 4}, 1)
    assert transcript["polyak"]["worst_sandwich"] == worst
    assert rows[0]["passed"] == passed


# the aggregate row reads the cut game's share: 9 of 10 rounds is exactly 0.9
@pytest.mark.parametrize("ok_rounds, passed", [(9, "True"), (8, "False")])
def test_cut_game_aggregate_share(monkeypatch, ok_rounds, passed):
    play_game = cutting.play_game

    def mark(cfg, player):
        tr = play_game(cfg, player)
        tr.state.history = [dataclasses.replace(rec, quarter_ok=rec.k < ok_rounds)
                            for rec in tr.state.history]
        # the rows read play_game's own count of the rounds that missed a quarter
        tr.quarter_violations = sum(not rec.quarter_ok for rec in tr.state.history)
        return tr

    monkeypatch.setattr(cutting, "play_game", mark)
    rows, _ = cli.RUNNERS["cut-game"]({"d": 3, "r": 4.1, "eps": 0.12, "games": 1,
                                       "max_rounds": 10}, 0)
    row = rows[-1]
    assert row["case"] == "aggregate-quarter-law"
    assert float(row["measured"]) == ok_rounds / 10
    assert (row["bound"], row["passed"]) == (f"{cutting.QUARTER_LAW_SHARE:.17g}", passed)


def test_config_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["interp", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["interp", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2


def test_failing_check_exits_one(tmp_path, monkeypatch, capsys):
    def bad_runner(params, seed):
        return [cli._row("zoo-validate", "forced", 1.0, 0.0, False, 0.0)], {}

    monkeypatch.setitem(cli.RUNNERS, "zoo-validate", bad_runner)
    code = cli.main(["zoo-validate", "--config", write_cfg(tmp_path, {}),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_game_certificate_failure_fails_row(tmp_path, monkeypatch):
    certificate = resisting._GameBase.certificate
    monkeypatch.setattr(resisting._GameBase, "certificate",
                        lambda self: {**certificate(self), "max_lawcos_residual": 2e-9})
    cfg, out = write_cfg(tmp_path, {"T": 4, "r": 1.0, "players": ["polyak"]}), tmp_path / "o"
    assert cli.main(["lb-nonsmooth", "--config", cfg, "--out", str(out)]) == 1
    assert [r["passed"] for r in read_rows(out)] == ["False"]


def test_ladder_report_failure_fails_its_row(monkeypatch):
    report = resisting.worst_trajectory_report
    monkeypatch.setattr(resisting, "worst_trajectory_report",
                        lambda eps, r: dataclasses.replace(report(eps, r), max_step_err=2e-8))
    rows, _ = cli.RUNNERS["polyak-worst"]({"eps": 0.17, "r": 5.0}, 0)
    assert [r["case"] for r in rows if r["passed"] != "True"] == ["eps=0.17,r=5.0,steps"]


def test_determinism_excluding_runtime(tmp_path):
    cfg = write_cfg(tmp_path, {"T": 4, "r": 1.0, "players": ["polyak"]})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["lb-nonsmooth", "--config", cfg, "--seed", "7",
                     "--out", str(out1)]) == 0
    assert cli.main(["lb-nonsmooth", "--config", cfg, "--seed", "7",
                     "--out", str(out2)]) == 0
    assert strip_runtime(read_rows(out1)) == strip_runtime(read_rows(out2))


def test_sweep_grid_of_one_matches_run(tmp_path):
    base = {"T": 4, "r": 1.0, "players": ["polyak"]}
    out_run = tmp_path / "run"
    cli.main(["lb-nonsmooth", "--config", write_cfg(tmp_path, base, "a.json"),
              "--seed", "5", "--out", str(out_run)])
    sweep = {"kind": "lb-nonsmooth", "base": {"r": 1.0, "players": ["polyak"]},
             "grid": {"T": [4]}}
    out_sweep = tmp_path / "sweep"
    cli.main(["sweep", "--config", write_cfg(tmp_path, sweep, "b.json"),
              "--seed", "5", "--out", str(out_sweep)])
    r1 = strip_runtime(read_rows(out_run))
    r2 = strip_runtime(read_rows(out_sweep))
    assert len(r2) == 1
    assert r1[0]["measured"] == r2[0]["measured"]


def test_sweep_empty_grid_empty_body(tmp_path):
    sweep = {"kind": "lb-nonsmooth", "base": {"T": 4, "r": 1.0}, "grid": {}}
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, sweep),
                     "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows == []


def test_sweep_cartesian_count(tmp_path):
    sweep = {"kind": "lb-nonsmooth", "base": {"players": ["polyak"]},
             "grid": {"T": [2, 4, 8], "r": [1.0, 2.0, 3.0]}}
    out = tmp_path / "s9"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, sweep),
                     "--seed", "2", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 9


def test_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERGCONV_THREADS", "2")
    sweep = {"kind": "interp", "base": {"theta_grid": [0.3, 1.0, 2], "triples": 5},
             "grid": {"triples": [5, 6]}}
    out = tmp_path / "st"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, sweep),
                     "--seed", "3", "--out", str(out)]) == 0


def test_import_loads_no_mpmath():
    # polyak-worst imports highprec (and with it mpmath) only when it runs
    src = os.path.dirname(os.path.dirname(hypergconv.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hypergconv.cli; print('mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
