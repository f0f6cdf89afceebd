import numpy as np
import pytest

import hypergconv as hg
from hypergconv import DomainError, RangeLimitError, base_point, dist, exp, zeta
from hypergconv import highprec, resisting
from hypergconv.oracles import fn_constant, fn_sqdist_point, subgradient_gap
from hypergconv.resisting import (
    a2_check,
    gap_bound_check,
    play,
    smooth_new,
    worst_build,
    worst_oracle,
)
from hypergconv.sampling import make_rng
from hypergconv.solvers import Trace, polyak_sgd
from hypergconv.oracles import OracleSample

from conftest import rand_point


class TestBuild:
    def test_eps_guard(self):
        with pytest.raises(DomainError):
            worst_build(0.2, 5.0)  # 0.2 > 1/(4 sqrt 2)

    def test_radius_guard(self):
        with pytest.raises(RangeLimitError):
            worst_build(0.15, 20.0)

    def test_ladder_count_formula(self):
        inst = worst_build(0.15, 10.0)
        assert inst.d == int(np.floor(float(zeta(10.0)) / (32 * 0.15 ** 2))) == 13
        rep = highprec.worst_trajectory_report(0.15, 20.0)
        assert rep.d == 27  # floor(zeta(20)/(32 * 0.0225))

    def test_triangle_identities_and_floor(self):
        inst = worst_build(0.16, 8.0)
        th = inst.theta
        for k in range(1, inst.d):
            assert np.tanh(inst.deltas[k - 1]) == pytest.approx(
                np.cos(th) * np.tanh(inst.radii[k - 1]), abs=1e-12)
            assert np.sinh(inst.radii[k]) == pytest.approx(
                np.sin(th) * np.sinh(inst.radii[k - 1]), rel=1e-12)
            assert np.cosh(inst.radii[k - 1]) == pytest.approx(
                np.cosh(inst.radii[k]) * np.cosh(inst.deltas[k - 1]),
                rel=1e-9)
        assert min(inst.radii) >= inst.r / 2 - 1e-9

    def test_frames_structure(self):
        inst = worst_build(0.17, 6.0)
        D = inst.d + 1
        for k in range(inst.d):
            fr = inst.frames[k]
            for i in range(k + 1, inst.d):
                assert np.allclose(fr[i], np.eye(D)[i + 1], atol=1e-12)

    def test_xstar_on_last_sphere(self):
        inst = worst_build(0.15, 6.0)
        assert dist(inst.xstar, inst.ladder[-1]) == pytest.approx(
            inst.radii[-1], abs=1e-9)
        assert inst.radii[-1] >= inst.r / 2

    def test_sign_pick(self):
        a = worst_build(0.15, 6.0, pick=+1)
        b = worst_build(0.15, 6.0, pick=-1)
        assert dist(a.xstar, b.xstar) >= a.r - 1e-6


class TestOracle:
    def test_value_at_xstar(self):
        inst = worst_build(0.15, 6.0)
        f = worst_oracle(inst)
        F, _ = f.eval(inst.xstar)
        assert F == pytest.approx(0.0, abs=1e-9)

    def test_values_on_ladder(self):
        inst = worst_build(0.15, 6.0)
        f = worst_oracle(inst)
        for k, yk in enumerate(inst.ladder):
            F, g = f.eval(yk)
            assert F == pytest.approx(inst.radii[k], abs=1e-8)
            if k <= inst.d - 2:
                assert g.norm == pytest.approx(1.0 / np.cos(inst.theta), abs=1e-9)
                assert g.norm <= inst.M

    def test_gconvexity_sampled(self):
        rng = make_rng(3)
        inst = worst_build(0.17, 5.0)
        f = worst_oracle(inst)
        for _ in range(300):
            a = rand_point(rng, inst.d, 2.0)
            b = rand_point(rng, inst.d, 2.0)
            assert subgradient_gap(f, a, b) >= -1e-8


class TestTrajectory:
    def test_polyak_reproduces_ladder_float64(self):
        rep = resisting.worst_trajectory_report(0.15, 10.0)
        assert len(rep.gaps) == rep.d
        assert rep.max_ladder_dist <= 1e-6
        assert rep.max_radius_err <= 1e-8
        assert rep.max_step_err <= 1e-8
        assert rep.max_gap_err <= 1e-6
        assert rep.min_gap >= 10.0 / 2 - 1e-9

    def test_float64_matches_highprec(self):
        rep64 = resisting.worst_trajectory_report(0.16, 5.0)
        rep = highprec.worst_trajectory_report(0.16, 5.0)
        assert rep.d == rep64.d
        assert np.allclose(rep.radii, rep64.radii, atol=1e-10)
        assert np.allclose(rep.gaps, rep64.gaps, atol=1e-8)

    def test_highprec_certificates_at_large_radius(self):
        rep = highprec.worst_trajectory_report(0.17, 20.0)
        assert rep.max_ladder_dist <= 1e-6
        assert rep.max_radius_err <= 1e-8
        assert rep.max_step_err <= 1e-8
        assert rep.max_gap_err <= 1e-6
        assert rep.min_gap >= 10.0


class TestA2Check:
    def test_polyak_trajectory_passes(self):
        inst = worst_build(0.15, 6.0)
        f = worst_oracle(inst)
        tr = polyak_sgd(f, fstar=0.0, x0=inst.ladder[0], s0=inst.r, T=inst.T)
        rep = a2_check(inst, tr)
        assert rep.a1_all and rep.a2_all

    def test_jump_to_xstar_fails_span_condition(self):
        inst = worst_build(0.15, 6.0)
        f = worst_oracle(inst)
        tr = Trace()
        F0, g0 = f.eval(inst.ladder[0])
        tr.samples.append(OracleSample(F0, inst.ladder[0], g0))
        F1, g1 = f.eval(inst.xstar)
        tr.samples.append(OracleSample(F1, inst.xstar, g1))
        rep = a2_check(inst, tr)
        assert not rep.rows[1].a1_ok

    def test_empty_trace_vacuous(self):
        inst = worst_build(0.15, 6.0)
        rep = a2_check(inst, Trace())
        assert rep.a1_all and rep.a2_all and rep.rows == []


class TestGapBound:
    def test_sqdist_instance(self, rng):
        xref = base_point(3)
        r = 1.5
        z = exp(xref, hg.frame_at_base(3)[0].scaled(r))
        f = fn_sqdist_point(z)
        f.smoothness = float(zeta(r))
        rep = gap_bound_check(f, xref, r)
        assert rep.ok
        assert rep.gap == pytest.approx(0.5 * r * r, abs=1e-10)
        assert rep.bound == pytest.approx(4.0 * r * r, rel=1e-12)

    def test_constant_function(self):
        # the constant states its own minimum and smoothness
        f = fn_constant(3.0)
        rep = gap_bound_check(f, base_point(2), 1.0)
        assert rep.ok and rep.gap == 0.0

    def test_smoothed_game_function(self):
        game = smooth_new(4, 1.0)
        play(game, "polyak", seed=0)
        f, _, _ = game.finalize()
        rep = gap_bound_check(f, game.xref, game.r)
        assert rep.ok
