import json

import numpy as np
import pytest

import hypergconv as hg
from hypergconv import DomainError, RangeLimitError, base_point, dist, exp, log, zeta
from hypergconv.oracles import OracleSample
from hypergconv.resisting import (
    BudgetExhausted,
    GameOracle,
    export_transcript_jsonl,
    nonsmooth_gap_bound,
    nonsmooth_new,
    smooth_gap_bound,
    smooth_new,
)
from hypergconv.sampling import make_rng, random_point_in_ball
from hypergconv.solvers import polyak_sgd, rgd, Trace

from conftest import rand_point

# arctanh(tanh(1)/sqrt(4)), frozen from a 30-digit evaluation
A_T4_R1 = 0.4009915814270069


def run_random_player(game, seed):
    rng = make_rng(seed)
    go = GameOracle(game)
    tr = Trace()
    for _ in range(game.T):
        p = random_point_in_ball(rng, game.xref, game.r)
        F, g = go.eval(p)
        tr.samples.append(OracleSample(F, p, g))
    return tr


class TestNonsmoothSetup:
    def test_needs_two_queries(self):
        with pytest.raises(DomainError):
            nonsmooth_new(1, 1.0)

    def test_shift_solves(self):
        g = nonsmooth_new(4, 1.0)
        assert g.a == pytest.approx(A_T4_R1, abs=1e-12)
        assert g.delta == g.a / 8.0

    def test_first_response_at_center_is_zero(self):
        g = nonsmooth_new(4, 1.0)
        s = g.respond(g.xref)
        assert s.F == pytest.approx(0.0, abs=1e-12)

    def test_budget_error(self):
        g = nonsmooth_new(2, 1.0)
        g.respond(g.xref)
        g.respond(exp(g.xref, g.frame[0].scaled(0.1)))
        with pytest.raises(BudgetExhausted):
            g.respond(g.xref)

    def test_padding_on_early_finalize(self):
        g = nonsmooth_new(4, 1.0)
        g.respond(g.xref)
        f, xstar, fstar = g.finalize()
        assert len(g.chosen) == 4
        assert len({i for i, _ in g.chosen}) == 4
        assert fstar == -g.a


class TestGapBounds:
    @pytest.mark.parametrize("T", [2, 4, 16, 48])
    def test_closed_forms_match_built_games(self, T):
        for r in (0.5, 2.0, 5.0, 30.0):
            ns, sm = nonsmooth_new(T, r), smooth_new(T, r)
            assert nonsmooth_gap_bound(T, r) == ns.gap_bound()
            assert smooth_gap_bound(T, r) == sm.gap_bound()
            # the same formulas read off the built game's own constants
            assert ns.gap_bound() == ns.r / (2.0 * zeta(ns.r) * np.sqrt(ns.T))
            assert sm.gap_bound() == 0.5 * (sm.smoothness * sm.r ** 2 / sm.T ** 2) / (
                8.0 * zeta(sm.r) ** 2)

    @pytest.mark.parametrize("bound", [nonsmooth_gap_bound, smooth_gap_bound])
    def test_same_errors_as_games(self, bound):
        with pytest.raises(DomainError):
            bound(1, 1.0)
        for r in (0.0, 31.0):
            with pytest.raises(RangeLimitError):
                bound(4, r)


class TestNonsmoothGame:
    @pytest.mark.parametrize("player", ["polyak", "rgd", "random"])
    def test_gap_bound_and_certificates(self, player):
        for T, r in [(4, 1.0), (8, 2.0)]:
            game = nonsmooth_new(T, r)
            go = GameOracle(game)
            if player == "polyak":
                polyak_sgd(go, fstar=-game.a, x0=game.xref, s0=r, T=T)
            elif player == "rgd":
                rgd(go, step=r / (4 * T), x0=game.xref, T=T)
            else:
                run_random_player(game, seed=T)
            f, xstar, fstar = game.finalize()
            cert = game.certificate()
            bound = game.gap_bound()
            assert cert["min_recorded_gap"] >= bound - 1e-9
            assert cert["dist_xref_xstar"] == pytest.approx(r, abs=1e-9)
            assert abs(cert["f_at_xstar"] - fstar) <= 1e-8
            assert cert["max_subdist_xstar"] <= 1e-8
            assert cert["max_lawcos_residual"] <= 1e-9

    def test_replay_reproduces_transcript(self):
        game = nonsmooth_new(6, 2.0)
        run_random_player(game, seed=3)
        f, _, _ = game.finalize()
        for s in game.history:
            F, g = f.eval(s.x)
            assert F == pytest.approx(s.F, abs=1e-9)
            assert np.allclose(g.vec, s.g.vec, atol=1e-9)

    def test_selection_values_nonnegative(self):
        game = nonsmooth_new(6, 2.0)
        run_random_player(game, seed=4)
        for m in game.selection_margins:
            assert m["h_selected"] >= -1e-9

    def test_locality_on_query_balls(self):
        # the final function agrees with every running function near its query
        rng = make_rng(8)
        game = nonsmooth_new(5, 1.5)
        run_random_player(game, seed=9)
        game.finalize()
        final = game.running_max(game.T - 1)
        for k in range(game.T):
            fk = game.running_max(k)
            xk = game.history[k].x
            for _ in range(100):
                p = random_point_in_ball(rng, xk, game.delta / 2)
                assert final.value(p) == pytest.approx(fk.value(p), abs=1e-12)

    def test_chosen_indices_distinct(self):
        game = nonsmooth_new(8, 1.0)
        run_random_player(game, seed=5)
        idx = [i for i, _ in game.chosen]
        assert len(set(idx)) == len(idx) == 8

    def test_transcript_export(self, tmp_path):
        game = nonsmooth_new(4, 1.0)
        run_random_player(game, seed=6)
        path = tmp_path / "t.jsonl"
        export_transcript_jsonl(game, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert set(rows[0]) == {"k", "x", "F", "g", "chosen_i", "chosen_s", "margins"}
        assert len(rows[0]["x"]) == game.d + 1


class TestSmoothGame:
    def test_sandwich_against_nonsmooth_twin(self):
        rng = make_rng(12)
        game = smooth_new(4, 1.0)
        go = GameOracle(game)
        polyak_sgd(go, fstar=-game.a, x0=game.xref, s0=1.0, T=4)
        for k in range(game.T):
            fk = game.running_max(k)
            env = game.running_envelope(k)
            xk = game.history[k].x
            for _ in range(25):
                p = random_point_in_ball(rng, xk, game.delta / 2)
                fv, ev = fk.value(p), env.value(p)
                assert ev <= fv + 1e-12
                assert ev >= fv - game.lam - 1e-12

    def test_same_minimizer_as_nonsmooth_and_bound(self):
        game = smooth_new(4, 2.0)
        run_random_player(game, seed=21)
        f, xstar, fstar = game.finalize()
        cert = game.certificate()
        assert abs(cert["f_at_xstar"] - fstar) <= 1e-8
        assert cert["dist_xref_xstar"] == pytest.approx(2.0, abs=1e-9)
        assert cert["min_recorded_gap"] >= game.gap_bound() - 1e-6
        assert f.smoothness == pytest.approx(1.0 / np.tanh(game.lam))

    def test_chord_gradient_lipschitz(self):
        rng = make_rng(13)
        game = smooth_new(4, 1.0)
        run_random_player(game, seed=22)
        f, _, _ = game.finalize()
        L = game.smoothness
        for _ in range(25):
            p = random_point_in_ball(rng, game.xref, 0.5)
            u = hg.sampling.random_unit_tangent(rng, p)
            h = game.lam * (1 + 3 * rng.uniform())
            q = exp(p, u.scaled(h))
            gp, gq = f.grad(p), f.grad(q)
            diffvec = hg.ptransport(p, q, gp).vec - gq.vec
            slope = np.sqrt(max(hg.mink_inner(diffvec, diffvec), 0.0)) / h
            assert slope <= L + 1e-3

    def test_envelope_locality(self):
        # smoothed values near x_k only depend on parts active in the
        # enlarged ball, so the final envelope equals the running one there
        rng = make_rng(14)
        game = smooth_new(4, 1.0)
        run_random_player(game, seed=23)
        game.finalize()
        for k in range(game.T):
            envk = game.running_envelope(k)
            envT = game.running_envelope(game.T - 1)
            xk = game.history[k].x
            for _ in range(10):
                p = random_point_in_ball(rng, xk, game.delta / 4)
                assert envT.value(p) == pytest.approx(envk.value(p), abs=1e-9)
