import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from hypergconv import DomainError, HalfSpace, RangeLimitError, dist, exp, frame_at_base, \
    log, sub_dist, zeta
from hypergconv import resisting
from hypergconv.hyperboloid import _tangent_unchecked
from hypergconv.oracles import CHORD_ALLOWANCE, SANDWICH_ALLOWANCE, worst_chord_slope
from hypergconv.resisting import (
    BudgetExhausted,
    nonsmooth_gap_bound,
    nonsmooth_new,
    play,
    smooth_gap_bound,
    smooth_new,
)
from hypergconv.sampling import make_rng, random_point_in_ball

# arctanh(tanh(1)/sqrt(4)), frozen from a 30-digit evaluation
A_T4_R1 = 0.4009915814270069


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
        g.respond(exp(g.xref, frame_at_base(g.d)[0].scaled(0.1)))
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
            play(game, player, seed=T)
            assert game.failed_checks(game.certificate(), game.replay_residual()) == []

    def test_play_refuses_unknown_player(self):
        game = nonsmooth_new(4, 1.0)
        with pytest.raises(ValueError, match="unknown player"):
            play(game, "newton", seed=0)
        assert game.history == []

    def test_replay_reproduces_transcript(self):
        game = nonsmooth_new(6, 2.0)
        play(game, "random", seed=3)
        f, _, _ = game.finalize()
        assert game.failed_checks(game.certificate(), game.replay_residual()) == []
        for s in game.history:
            assert np.allclose(f.eval(s.x)[1].vec, s.g.vec, atol=1e-9)

    def test_selection_values_nonnegative(self):
        game = nonsmooth_new(6, 2.0)
        play(game, "random", seed=4)
        for m in game.selection_margins:
            assert m["h_selected"] >= -1e-9

    def test_locality_on_query_balls(self):
        # the final function agrees with every running function near its query
        rng = make_rng(8)
        game = nonsmooth_new(5, 1.5)
        play(game, "random", seed=9)
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
        play(game, "random", seed=5)
        idx = [i for i, _ in game.chosen]
        assert len(set(idx)) == len(idx) == 8


def select_by_loop(game, x):
    """The per-piece selection loop the stacked kernel replaced: the choice,
    its h value and the runner-up gap."""
    best, best_val, runner = None, -np.inf, -np.inf
    for i in game.remaining:
        for s in (+1, -1):
            v = sub_dist(x, game.hyperplane(i, s))[0] - game.a
            if v > best_val:
                runner = best_val
                best, best_val = (i, s), v
            elif v > runner:
                runner = v
    return best, best_val, best_val - runner


def hyperplanes_by_loop(game):
    """The per-(i, s) construction the stored pair replaced: one exp, log and
    HalfSpace over full vectors for each of the 2T hyperplanes."""
    frame = frame_at_base(game.d)
    subs = {}
    for i in range(1, game.d + 1):
        for s in (+1, -1):
            z = exp(game.xref, frame[i - 1].scaled(game.a * s))
            n = log(z, game.xref)
            subs[(i, s)] = HalfSpace(z, n.scaled(1.0 / n.norm)).boundary
    return subs


class TestHyperplanePair:
    @pytest.mark.parametrize("T", [2, 3, 16, 48, 128])
    def test_derived_hyperplanes_equal_loop(self, T):
        for r in (0.5, 2.0, 5.0, 19.0, 30.0):
            game = nonsmooth_new(T, r)
            for (i, s), want in hyperplanes_by_loop(game).items():
                got = game.hyperplane(i, s)
                assert got.point.tobytes() == want.point.tobytes()
                assert got.normals.tobytes() == want.normals.tobytes()

    @pytest.mark.parametrize("T", [2, 3, 16, 48])
    def test_builds_two_hyperplanes(self, T, monkeypatch):
        counts = dict.fromkeys(["HalfSpace", "exp", "log"], 0)
        for name in counts:
            def counted(*args, _f=getattr(resisting, name), _name=name, **kw):
                counts[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(resisting, name, counted)
        for new in (nonsmooth_new, smooth_new):
            counts.update(dict.fromkeys(counts, 0))
            new(T, 2.0)
            assert counts == {"HalfSpace": 2, "exp": 2, "log": 2}


class TestSelection:
    @pytest.mark.parametrize("T", [2, 16, 48])
    @pytest.mark.parametrize("r", [2.0, 5.0])
    def test_stacked_select_equals_loop(self, T, r):
        for player in ("polyak", "random"):
            game = nonsmooth_new(T, r)
            stacked = game._select

            def checked(x):
                want = select_by_loop(game, x)
                got = stacked(x)
                m = game.selection_margins[-1]
                assert (got, m["h_selected"], m["runner_up_gap"]) == want
                return got

            game._select = checked
            play(game, player, 5)
            assert len(game.selection_margins) == T


class TestRunningMaxMinimum:
    # every running max states its minimum -a: part 0 is at least -a, and x*
    # lies on every chosen hyperplane, where each part is at most -a
    @pytest.mark.parametrize("new", [nonsmooth_new, smooth_new])
    @pytest.mark.parametrize("T", [4, 16])
    def test_fmin_is_attained_lower_bound(self, new, T):
        game = new(T, 1.0)
        play(game, "polyak", seed=0)
        f, xstar, fstar = game.finalize()
        assert fstar == f.fmin == -game.a
        rng = make_rng(T)
        for k in range(T):
            fk = game.running_max(k)
            assert fk.fmin == -game.a
            assert abs(fk.value(xstar) - fk.fmin) <= 1e-8
            for _ in range(20):
                assert fk.value(random_point_in_ball(rng, game.xref, game.r)) >= fk.fmin


class TestSmoothGame:
    def test_sandwich_against_nonsmooth_twin(self):
        rng = make_rng(12)
        game = smooth_new(4, 1.0)
        play(game, "polyak", seed=0)
        assert game.worst_sandwich(rng, 25) <= 1e-12

    def test_same_minimizer_as_nonsmooth_and_bound(self):
        game = smooth_new(4, 2.0)
        play(game, "random", seed=21)
        assert game.failed_checks(game.certificate(), game.replay_residual()) == []
        assert game.finalize()[0].smoothness == pytest.approx(1.0 / np.tanh(game.lam))

    def test_chord_gradient_lipschitz(self):
        rng = make_rng(13)
        game = smooth_new(4, 1.0)
        play(game, "random", seed=22)
        f, _, _ = game.finalize()
        slope = worst_chord_slope(f, rng, game.xref, 0.5, game.lam, 25)
        assert slope <= game.smoothness + CHORD_ALLOWANCE

    def test_worst_checks_carry_nan(self, monkeypatch):
        class NanOracle:
            def value(self, x):
                return float("nan")

            def eval(self, x):
                return float("nan"), _tangent_unchecked(x, np.full(x.coords.shape, np.nan))

            def bracket(self, x):
                return float("nan"), float("nan")

        game = smooth_new(2, 1.0)
        play(game, "polyak", seed=0)
        monkeypatch.setattr(game, "_smooth", lambda f: NanOracle())
        assert np.isnan(game.worst_sandwich(make_rng(0), 2))
        assert np.isnan(worst_chord_slope(NanOracle(), make_rng(0), game.xref,
                                          0.5, game.lam, 2))

    @pytest.mark.parametrize("shift", [(-2.0, 0.0), (0.0, 1e-6)])
    def test_sandwich_sees_a_bracket_outside(self, monkeypatch, shift):
        # a bracket reaching below f - lam, or above f, is a violation
        class FakeEnvelope:
            def __init__(self, f):
                self.f = f

            def bracket(self, x):
                fv = self.f.value(x)
                return fv + shift[0] * game.lam, fv + shift[1]

        game = smooth_new(4, 1.0)
        play(game, "polyak", seed=0)
        monkeypatch.setattr(game, "_smooth", FakeEnvelope)
        expected = game.lam if shift[0] else 1e-6
        assert game.worst_sandwich(make_rng(0), 3) == pytest.approx(expected, rel=1e-6)

    def test_sandwich_radius_in_range(self):
        # delta/2 = 1.7e-4 in dimension 128, where sinh^127 underflows to
        # zero: the sampler scales it and the sandwich ball is sampled
        game = smooth_new(128, 2.0)
        xk = game.respond(game.xref).x
        rng = make_rng(0)
        for _ in range(5):
            p = random_point_in_ball(rng, xk, game.delta / 2.0)
            assert 0.0 < dist(xk, p) <= game.delta / 2.0 * (1.0 + 1e-9)

    def test_envelope_locality(self):
        # smoothed values near x_k only depend on parts active in the
        # enlarged ball, so the final envelope equals the running one there
        rng = make_rng(14)
        game = smooth_new(4, 1.0)
        play(game, "random", seed=23)
        game.finalize()
        for k in range(game.T):
            envk = game._smooth(game.running_max(k))
            envT = game._smooth(game.running_max(game.T - 1))
            xk = game.history[k].x
            for _ in range(10):
                p = random_point_in_ball(rng, xk, game.delta / 4)
                assert envT.value(p) == pytest.approx(envk.value(p), abs=1e-9)


class TestCheckEdges:
    # each threshold of the shared checks is pinned here: a value at its
    # tolerance passes, the next double past it fails, and a NaN fails
    CERT = {"dist_xref_xstar": 0.0, "f_at_xstar": 0.0, "fstar": 0.0, "max_subdist_xstar": 0.0,
            "max_lawcos_residual": 0.0, "gap_bound": 1.0, "min_recorded_gap": 1.0}
    REPORT = resisting.WorstReplayReport(
        d=2, M=1.0, gaps=[], radii=[], max_ladder_dist=0.0, max_radius_err=0.0,
        max_step_err=0.0, max_gap_err=0.0, min_gap=10.0)

    @pytest.mark.parametrize("check,at,past", [
        ("dist_xref_xstar", 1e-9, np.inf), ("f_at_xstar", 1e-8, np.inf),
        ("max_subdist_xstar", 1e-8, np.inf), ("max_lawcos_residual", 1e-9, np.inf),
        ("min_recorded_gap", 1.0 - 1e-9, -np.inf), ("replay_residual", 1e-9, np.inf)])
    def test_game_certificate(self, check, at, past):
        game = SimpleNamespace(r=0.0)  # so |dist_xref_xstar - r| is the field itself
        for value, failed in ((at, []), (np.nextafter(at, past), [check]), (np.nan, [check])):
            cert = {**self.CERT, check: value}
            replay = cert.pop("replay_residual", 0.0)
            assert resisting._GameBase.failed_checks(game, cert, replay) == failed

    @pytest.mark.parametrize("field,row,at,past", [
        ("max_ladder_dist", 0, 1e-6, np.inf), ("max_radius_err", 1, 1e-8, np.inf),
        ("max_step_err", 2, 1e-8, np.inf), ("max_gap_err", 3, 1e-6, np.inf),
        ("min_gap", 3, 10.0 / 2 - 1e-6, -np.inf)])
    def test_ladder_report(self, field, row, at, past):
        assert [c[2] for c in self.REPORT.checks(10.0)] == [1e-6, 1e-8, 1e-8, 5.0]
        for value, ok in ((at, True), (np.nextafter(at, past), False), (np.nan, False)):
            rep = dataclasses.replace(self.REPORT, **{field: value})
            assert [c[3] for c in rep.checks(10.0)] == [ok or i != row for i in range(4)]

    def test_chord_allowance(self):
        assert CHORD_ALLOWANCE == 1e-3

    # lb-smooth's sampled rule: a sandwich violation up to SANDWICH_ALLOWANCE
    # and a chord slope up to L + CHORD_ALLOWANCE
    @pytest.mark.parametrize("slot,at", [(0, SANDWICH_ALLOWANCE), (1, 2.0 + CHORD_ALLOWANCE)])
    def test_sampled_rule(self, slot, at):
        game = SimpleNamespace(smoothness=np.float64(2.0))
        for value, ok in ((at, True), (np.nextafter(at, np.inf), False), (np.nan, False)):
            measured = [0.0, 0.0]
            measured[slot] = value
            assert resisting.SmoothGame.samples_pass(game, *measured) is ok

    def test_sandwich_allowance(self):
        assert SANDWICH_ALLOWANCE == 1e-9
