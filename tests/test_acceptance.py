"""Acceptance suite: one test per criterion, each printing a pass line and
asserting its stated tolerances and runtime budget.

Number 4 runs the float64 path at r=10 and the high-precision replay at r=20:
radius-20 hyperboloid coordinates are not representable in doubles (the sheet
sits within one ulp of the light cone); see README, "Why radius costs precision".
"""

import csv
import json
import time

import numpy as np
import pytest

import hypergconv as hg
from hypergconv import base_point, dist, exp, frame_at_base, gspan, log, \
    mink_inner, sub_dist, zeta
from hypergconv import cli, highprec, resisting
from hypergconv.cutting import (
    CutConfig, play_game, quarter_law_holds, random_ball_player, volume_ball)
from hypergconv.instances import max_of_distances_instance
from hypergconv.interpolation import (
    InterpData,
    NotApplicable,
    construct_sufficient,
    minimal_function,
    minimal_values_hold,
    obstruction_certificate,
    obstructs,
    roundtrip_holds,
)
from hypergconv.oracles import (
    CHORD_ALLOWANCE,
    OracleSample,
    fn_sqdist_point,
    scalar_bounds_hold,
    taper,
    worst_chord_slope,
)
from hypergconv.resisting import gap_bound_check, nonsmooth_new, play, smooth_new
from hypergconv.sampling import make_rng, random_point_in_ball
from hypergconv.solvers import polyak_guarantee, polyak_sgd

from conftest import rand_point, rand_tangent, rand_unit


def report(n, label, elapsed, budget):
    print(f"ACCEPTANCE {n} PASS: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_manifold_identities():
    # 1000 randomized cases per identity, spread over d in {2, 5, 10};
    # tolerances as stated per op, over the float64-certified ranges
    # (README, "Why radius costs precision")
    t0 = time.perf_counter()
    for d in (2, 5, 10):
        rng = make_rng(100 + d)
        x0 = base_point(d)
        # exp/log inversion: tangent recovery at 1e-8, point recovery at 1e-7
        for _ in range(334):
            x = rand_point(rng, d, 1.0)
            v = rand_tangent(rng, x, 8.5)
            w = log(x, exp(x, v))
            diff = w.vec - v.vec
            assert np.sqrt(abs(mink_inner(diff, diff))) <= 1e-8
        for _ in range(334):
            x = rand_point(rng, d, 1.0)
            y = exp(x0, rand_tangent(rng, x0, 9.5))
            assert dist(exp(x, log(x, y)), y) <= 1e-7
        # parallel transport is a Minkowski isometry
        for _ in range(334):
            x, y = rand_point(rng, d, 2.5), rand_point(rng, d, 2.5)
            u, w = rand_tangent(rng, x, 2.0), rand_tangent(rng, x, 2.0)
            lhs = mink_inner(hg.ptransport(x, y, u).vec, hg.ptransport(x, y, w).vec)
            assert abs(lhs - mink_inner(u.vec, w.vec)) <= 1e-9
        # gspan contains its generating geodesics
        for _ in range(334 // 4 + 1):
            x = rand_point(rng, d, 1.0)
            vs = [rand_unit(rng, x) for _ in range(2)]
            S = gspan([x], vs)
            for t in (-5.0, -1.3, 2.1, 5.0):
                assert sub_dist(exp(x, vs[0].scaled(t)), S)[0] <= 1e-9
    report(1, "manifold identities at d in {2,5,10}", time.perf_counter() - t0, 5.0)


def test_criterion_2_nonsmooth_lower_bound():
    t0 = time.perf_counter()
    for T in (4, 8, 16):
        for r in (1.0, 2.0, 5.0):
            for player in ("polyak", "rgd", "random"):
                game = nonsmooth_new(T, r)
                play(game, player, seed=T * 100 + int(r))
                assert game.failed_checks(game.certificate(), game.replay_residual()) == []
    report(2, "nonsmooth resisting oracle vs 3 players on 3x3 grid",
           time.perf_counter() - t0, 30.0)


def test_criterion_3_smoothed_lower_bound():
    t0 = time.perf_counter()
    for T in (4, 8, 16):
        for r in (1.0, 2.0, 5.0):
            game = smooth_new(T, r)
            play(game, "polyak", seed=0)
            f, _, _ = game.finalize()
            lam, L = game.lam, game.smoothness
            assert L == pytest.approx(1.0 / np.tanh(game.a / (8 * T)))
            assert game.failed_checks(game.certificate(), game.replay_residual()) == []
            rng = make_rng(1000 + T + int(r))
            assert game.worst_sandwich(rng, 100) <= 1e-12
            assert worst_chord_slope(f, rng, game.xref, r / 2, lam, 10) <= L + CHORD_ALLOWANCE
    report(3, "smoothed resisting oracle: sandwich, gap, smoothness",
           time.perf_counter() - t0, 300.0)


def test_criterion_4_exact_trajectory():
    t0 = time.perf_counter()
    for eps in (0.15, 0.17):
        # float64 carries the construction at r=10; r=20 exceeds double
        # precision and is certified by the exact replay
        for replay, r in ((resisting, 10.0), (highprec, 20.0)):
            rep = replay.worst_trajectory_report(eps, r)
            assert rep.d == int(np.floor(float(zeta(r)) / (32 * eps * eps)))
            assert [c for c in rep.checks(r) if not c[3]] == []
            assert all(rk >= r / 2 for rk in rep.radii)
    report(4, "Polyak trajectory equals the predicted ladder (r in {10,20})",
           time.perf_counter() - t0, 10.0)


def test_criterion_5_polyak_guarantee():
    t0 = time.perf_counter()
    rng = make_rng(55)
    x0 = base_point(3)
    for T in (10, 100):
        for _ in range(20):
            center = rand_point(rng, 3, 1.5)
            fobj, xstar, fstar = max_of_distances_instance(rng, center)
            s0 = dist(x0, xstar) + 1.0
            tr = polyak_sgd(fobj, fstar, x0, s0, T=T)
            assert min(g * g for g in tr.gaps) <= polyak_guarantee(s0, 1.0, T) + 1e-12
    report(5, "Polyak guarantee on 20 seeded instances, T in {10,100}",
           time.perf_counter() - t0, 10.0)


def test_criterion_6_volumes_and_cut_games():
    from scipy.special import gamma
    t0 = time.perf_counter()
    for d in range(3, 9):
        omega = np.pi ** (d / 2) / gamma(d / 2 + 1)
        for r in np.linspace(4 * np.log(d), 20.0, 5):
            v = volume_ball(d, r)
            ub = omega * np.exp(r * (d - 1)) / ((d - 1) * 2 ** (d - 1))
            assert v <= ub * (1 + 1e-6)
            assert v >= 0.25 * ub * (1 - 1e-6)
    total_rounds = quarter_rounds = 0
    for seed in range(50):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=seed, max_rounds=12)
        tr = play_game(cfg, random_ball_player(cfg))
        assert tr.state.verify_consistency()
        assert tr.replay_ok()
        total_rounds += len(tr.state.history)
        quarter_rounds += sum(1 for rec in tr.state.history if rec.quarter_ok)
    assert quarter_law_holds(quarter_rounds / total_rounds)
    report(6, f"volume bounds and 50 cut games "
              f"(quarter law in {quarter_rounds}/{total_rounds} rounds)",
           time.perf_counter() - t0, 120.0)


def test_criterion_7_interpolation():
    t0 = time.perf_counter()
    for theta in np.linspace(0.1, 1.4, 14):
        data, lower, upper = obstruction_certificate(float(theta))
        assert obstructs(data, lower, upper)
    rng = make_rng(70)
    z = rand_point(rng, 3, 1.0)
    src = fn_sqdist_point(z)
    items = []
    for _ in range(6):
        p = random_point_in_ball(rng, z, 0.45)
        F, g = src.eval(p)
        items.append(OracleSample(F, p, g))
    f = construct_sufficient(InterpData(items, mu=1.0))
    assert not isinstance(f, NotApplicable)
    errs, gaps = [], []
    for s in items:
        assert f.value(s.x) == pytest.approx(s.F, abs=1e-12)  # tighter than the row
        errs.append(abs(f.value(s.x) - s.F))
        for _ in range(20):
            q = rand_point(rng, 3, 2.0)
            gaps.append(f.value(q) - s.F - mink_inner(s.g.vec, log(s.x, q).vec))
    assert roundtrip_holds(np.max(errs), np.min(gaps))
    worst = 0.0
    count = 0
    while count < 1000:
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 2.0)
        x = rand_point(rng, 3, 1.5)
        if dist(x, y) < 1e-6:
            continue
        count += 1
        fmin, val = minimal_function(0.2, y, g, x)
        worst = np.maximum(worst, abs(val - (0.2 + mink_inner(g.vec, log(y, x).vec))))
    assert minimal_values_hold(worst)
    report(7, "interpolation: obstruction grid, reconstruction, minimal values",
           time.perf_counter() - t0, 30.0)


def test_criterion_8_scalar_suite():
    t0 = time.perf_counter()
    growth, bend = [], []
    for R in (1.0, 10.0):
        D = np.geomspace(0.5000001 * R * R, 1e6 * R * R, 1000)
        u, du, d2u = taper(D, R)
        growth.append(u + D * du)
        bend.append(2 * du + D * d2u)
        assert np.all((u + D * du) + (2 * du + D * d2u) * 2 * D > 0.0)
        assert np.all((u + D * du) * 2 * np.sqrt(2 * D) <= 4 * R + 1e-12)
    t = np.linspace(0.0, 30.0, 1000)
    assert scalar_bounds_hold(np.max(zeta(t) - (1.0 + t)), np.min(growth), np.max(bend))
    # quadratic-growth gap bound on a squared distance and a smoothed game
    r = 1.5
    xref = base_point(3)
    z = exp(xref, frame_at_base(3)[0].scaled(r))
    f = fn_sqdist_point(z)
    f.smoothness = float(zeta(r))
    assert gap_bound_check(f, xref, r).ok
    game = smooth_new(4, 1.0)
    play(game, "polyak", seed=0)
    fearly, _, _ = game.finalize()
    assert gap_bound_check(fearly, game.xref, game.r).ok
    report(8, "scalar taper/zeta inequalities and gap bounds",
           time.perf_counter() - t0, 5.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "lb-nonsmooth": {"T": 4, "r": 2.0, "players": ["polyak", "random"]},
        "lb-smooth": {"T": 2, "r": 1.0, "sandwich_samples": 4, "chord_samples": 4},
        "polyak-worst": {"eps": 0.17, "r": 5.0},
        "cut-game": {"d": 3, "r": 4.0, "eps": 0.12, "games": 2, "max_rounds": 5},
        "interp": {"theta_grid": [0.2, 1.2, 4], "triples": 25},
        "zoo-validate": {"d": 3, "samples": 50},
    }
    for kind, cfg in configs.items():
        outs = []
        for tag in ("a", "b"):
            cfg_path = tmp_path / f"{kind}-{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{kind}-{tag}"
            assert cli.main([kind, "--config", str(cfg_path), "--seed", "11",
                             "--out", str(out)]) == 0
            with open(out / "summary.csv") as fh:
                rows = [{k: v for k, v in row.items() if k != "runtime_s"}
                        for row in csv.DictReader(fh)]
            outs.append(rows)
        assert outs[0] == outs[1], f"{kind} rerun differs"
    report(9, "seeded reruns byte-identical (runtime column excluded)",
           time.perf_counter() - t0, 120.0)
