import numpy as np
import pytest

import hypergconv as hg
from hypergconv import DomainError, base_point
from hypergconv.cutting import (
    AdversaryExhausted,
    CutConfig,
    CutGameState,
    adversary_respond,
    default_eps,
    new_game,
    packing_build,
    packing_floor,
    play_game,
    random_ball_player,
    volume_ball,
    write_summary_csv,
    write_transcript_json,
)
from hypergconv.sampling import make_rng


def pairwise_min_cosh(points):
    C = np.array([p.coords for p in points])
    g = C[:, :1] @ C[:, :1].T - C[:, 1:] @ C[:, 1:].T
    np.fill_diagonal(g, np.inf)
    return g.min()


class TestConfig:
    def test_default_eps(self):
        cfg = CutConfig(d=5, r=4.0)
        assert cfg.eps == default_eps(5) == 1.0 / (320 * 4)

    def test_guards(self):
        with pytest.raises(DomainError):
            CutConfig(d=2, r=1.0)
        with pytest.raises(DomainError):
            CutConfig(d=3, r=1.0, eps=1.5)


class TestPacking:
    def test_tiny_ball_single_center(self):
        # with eps r nearly r, nothing but the center fits
        cfg = CutConfig(d=3, r=0.5, eps=0.99, seed=0)
        pts = packing_build(cfg)
        assert len(pts) >= 1
        assert pairwise_min_cosh(pts) >= np.cosh(2 * cfg.ball_radius) - 1e-12 \
            or len(pts) == 1

    def test_pairwise_separation_exact(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=1)
        pts = packing_build(cfg)
        assert pairwise_min_cosh(pts) >= np.cosh(2 * cfg.ball_radius)

    def test_count_within_factor_ten_of_volume_ratio(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=1)
        pts = packing_build(cfg)
        est = volume_ball(3, cfg.r - cfg.ball_radius) / volume_ball(3, 2 * cfg.ball_radius)
        assert est / 10 <= len(pts) <= est * 10

    def test_deterministic(self):
        cfg = CutConfig(d=3, r=4.0, eps=0.1, seed=5, max_centers=256)
        a = packing_build(cfg)
        b = packing_build(cfg)
        assert len(a) == len(b)
        assert all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))


class TestVolume:
    def test_zero_radius(self):
        assert volume_ball(4, 0.0) == 0.0

    def test_closed_forms(self):
        # antiderivatives of sinh^{d-1} times the ball-volume normalization
        # used throughout this module (the bounds share the same constant)
        for r in (0.5, 2.0, 3.0):
            assert volume_ball(2, r) == pytest.approx(
                np.pi * (np.cosh(r) - 1), rel=1e-8)
            assert volume_ball(3, r) == pytest.approx(
                np.pi * (np.sinh(2 * r) - 2 * r) / 3, rel=1e-8)

    def test_exponential_upper_bound(self):
        from scipy.special import gamma
        for d in range(3, 9):
            omega = np.pi ** (d / 2) / gamma(d / 2 + 1)
            for r in np.linspace(4 * np.log(d), 20.0, 6):
                ub = omega * np.exp(r * (d - 1)) / ((d - 1) * 2 ** (d - 1))
                assert volume_ball(d, r) <= ub * (1 + 1e-6)

    def test_lower_bound_beyond_log_radius(self):
        from scipy.special import gamma
        for d in range(3, 9):
            omega = np.pi ** (d / 2) / gamma(d / 2 + 1)
            for r in np.linspace(4 * np.log(d), 20.0, 6):
                lb = 0.25 * omega * np.exp(r * (d - 1)) / ((d - 1) * 2 ** (d - 1))
                assert volume_ball(d, r) >= lb * (1 - 1e-6)


class TestAdversary:
    def test_single_far_candidate_survives(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=2)
        state = CutGameState(cfg, np.array([
            hg.exp(base_point(3), hg.frame_at_base(3)[0].scaled(3.0)).coords]))
        g = adversary_respond(state, base_point(3), make_rng(0))
        assert state.n_candidates == 1
        assert state.verify_consistency()

    def test_sign_choice_is_optimal(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=3, max_centers=512)
        state = new_game(cfg)
        rng = make_rng(10)
        before = state.candidates.copy()
        adversary_respond(state, base_point(3), rng)
        rec = state.history[-1]
        sh = np.sinh(cfg.ball_radius)
        col = before[:, 1:] @ rec.g[1:] - before[:, 0] * rec.g[0]
        plus = int((col < -sh).sum())
        minus = int((col > sh).sum())
        assert rec.survivors == max(plus, minus)

    def test_prune_keeps_only_consistent(self):
        cfg = CutConfig(d=3, r=5.0, eps=0.1, seed=4, max_centers=512)
        state = new_game(cfg)
        rng = make_rng(11)
        player = random_ball_player(cfg)
        for _ in range(5):
            if state.n_candidates == 0:
                break
            adversary_respond(state, player(state, rng), rng)
            assert state.verify_consistency()

    def test_exhaustion_on_pinned_candidate(self):
        # a single candidate queried exactly on itself: every hyperplane
        # through the query grazes its ball
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=5)
        c = hg.exp(base_point(3), hg.frame_at_base(3)[0].scaled(2.0))
        state = CutGameState(cfg, np.array([c.coords]))
        with pytest.raises(AdversaryExhausted):
            adversary_respond(state, c, make_rng(1))

    def test_empty_candidates_signal(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=6)
        state = CutGameState(cfg, np.zeros((0, 4)))
        with pytest.raises(AdversaryExhausted):
            adversary_respond(state, base_point(3), make_rng(2))


class TestPlayGame:
    def test_repeat_center_consistency_and_replay(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=7, max_rounds=25)
        tr = play_game(cfg)
        assert tr.state.verify_consistency()
        assert tr.replay_ok()
        assert tr.quarter_violations == sum(
            1 for rec in tr.state.history if not rec.quarter_ok)

    def test_random_player_runs(self):
        cfg = CutConfig(d=3, r=6.0, eps=0.1, seed=8, max_rounds=10)
        tr = play_game(cfg, random_ball_player(cfg))
        assert tr.rounds_survived <= 10
        assert tr.packing_size > 0
        assert tr.floor == packing_floor(cfg)

    def test_deterministic_transcript(self):
        cfg = CutConfig(d=3, r=5.0, eps=0.12, seed=9, max_rounds=8, max_centers=512)
        a = play_game(cfg, random_ball_player(cfg))
        b = play_game(cfg, random_ball_player(cfg))
        assert a.rounds_survived == b.rounds_survived
        assert all(np.array_equal(x.g, y.g)
                   for x, y in zip(a.state.history, b.state.history))

    def test_writers(self, tmp_path):
        import csv
        import json
        cfg = CutConfig(d=3, r=5.0, eps=0.12, seed=10, max_rounds=5, max_centers=256)
        tr = play_game(cfg, random_ball_player(cfg))
        jpath = tmp_path / "game.json"
        write_transcript_json(tr, jpath)
        doc = json.loads(jpath.read_text())
        assert doc["rounds_survived"] == tr.rounds_survived
        assert len(doc["rounds"]) == len(tr.state.history)
        cpath = tmp_path / "summary.csv"
        write_summary_csv([tr], cpath)
        rows = list(csv.reader(cpath.read_text().splitlines()))
        assert rows[0] == ["seed", "d", "r", "eps", "rounds_survived",
                           "quarter_law_violations"]
        assert len(rows) == 2
