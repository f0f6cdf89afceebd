import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import hypergconv as hg
from hypergconv import DomainError, RangeLimitError, base_point, dist, exp, zeta
from hypergconv.hyperboloid import _mink_x, _mink_x_rows, ptransport
from hypergconv import highprec, resisting
from hypergconv.oracles import Constant, SqDistToPoint, subgradient_gap
from hypergconv.resisting import (
    WorstFunctionOracle,
    a2_check,
    play,
    smooth_new,
    worst_build,
)
from hypergconv.sampling import make_rng
from hypergconv.solvers import CertificateError, Trace, polyak_sgd
from hypergconv.oracles import OracleSample

from conftest import rand_point
from helpers import gap_bound_check


class TestBuild:
    # 0.2 > 1/(4 sqrt 2); at r = 0.5 eps = 0.17 leaves a ladder of d = 1 < 2
    @pytest.mark.parametrize("build,eps,r", [
        (worst_build, 0.2, 5.0),
        (highprec.worst_trajectory_report, 0.2, 20.0),
        (worst_build, 0.17, 0.5),
        (highprec.worst_trajectory_report, 0.17, 0.5),
    ], ids=["float64-eps", "mpmath-eps", "float64-d1", "mpmath-d1"])
    def test_eps_guard(self, build, eps, r):
        with pytest.raises(DomainError):
            build(eps, r)

    def test_radius_guard(self):
        with pytest.raises(RangeLimitError):
            worst_build(0.15, 20.0)

    # the replay has no radius cap of its own; every radius outside (0, inf)
    # must still fail typed, not as ZeroDivisionError/ValueError/OverflowError
    @pytest.mark.parametrize("r", [0.0, -5.0, np.nan, np.inf])
    def test_replay_radius_domain(self, r):
        with pytest.raises(DomainError):
            highprec.worst_trajectory_report(0.1, r)

    # one NaN radius anywhere on the ladder fails the build-time checks
    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_nan_radius_fails_verify(self, k):
        inst = worst_build(0.16, 8.0)
        radii = list(inst.radii)
        radii[k] = np.nan
        with pytest.raises(hg.GeometryViolation):
            resisting._verify_instance(dataclasses.replace(inst, radii=radii))

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

    def test_axes_structure(self):
        for eps, r in ((0.17, 6.0), (0.1, 10.0)):
            inst = worst_build(eps, r)
            d, ax, y = inst.d, inst.axes, inst.ladder
            # the last axis is never turned: x* steps along it bit for bit
            assert np.array_equal(ax[d - 1], np.eye(d + 1)[d])
            gram = _mink_x_rows(np.repeat(ax, d, 0), np.tile(ax, (d, 1)))
            assert np.max(np.abs(gram.reshape(d, d) - np.eye(d))) <= 1e-12
            for k in range(1, d):
                assert abs(_mink_x(y[k].coords, ax[k - 1])) <= 1e-12
            # reference: transport every earlier frame row along each step
            fr = np.eye(d, d + 1, 1)
            for k in range(1, d):
                prev = fr.copy()
                fr[k - 1] = (np.sinh(inst.deltas[k - 1]) * y[k - 1].coords
                             + np.cosh(inst.deltas[k - 1]) * prev[k - 1])
                for i in range(k - 1):
                    fr[i] = ptransport(y[k - 1], y[k],
                                       resisting._rebase(y[k - 1], prev[i])).vec
            assert np.max(np.abs(fr - ax)) <= 1e-11

    def test_build_transports_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("worst_build called ptransport")

        monkeypatch.setattr(resisting, "ptransport", refuse)
        for eps, r in ((0.1, 10.0), (0.17, 14.0)):
            worst_build(eps, r)

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
        f = WorstFunctionOracle(inst)
        F, _ = f.eval(inst.xstar)
        assert F == pytest.approx(0.0, abs=1e-9)

    def test_values_on_ladder(self):
        inst = worst_build(0.15, 6.0)
        f = WorstFunctionOracle(inst)
        for k, yk in enumerate(inst.ladder):
            F, g = f.eval(yk)
            assert F == pytest.approx(inst.radii[k], abs=1e-8)
            if k <= inst.d - 2:
                assert g.norm == pytest.approx(1.0 / np.cos(inst.theta), abs=1e-9)
                assert g.norm <= inst.M

    def test_gconvexity_sampled(self):
        rng = make_rng(3)
        inst = worst_build(0.17, 5.0)
        f = WorstFunctionOracle(inst)
        for _ in range(300):
            a = rand_point(rng, inst.d, 2.0)
            b = rand_point(rng, inst.d, 2.0)
            assert subgradient_gap(f, a, b) >= -1e-8


class TestTrajectory:
    def test_polyak_reproduces_ladder_float64(self):
        rep = resisting.worst_trajectory_report(0.15, 10.0)
        assert len(rep.gaps) == rep.d
        assert [c for c in rep.checks(10.0) if not c[3]] == []
        assert rep.min_gap >= 10.0 / 2 - 1e-9

    def test_float64_matches_highprec(self):
        rep64 = resisting.worst_trajectory_report(0.16, 5.0)
        rep = highprec.worst_trajectory_report(0.16, 5.0)
        assert rep.d == rep64.d
        assert np.allclose(rep.radii, rep64.radii, atol=1e-10)
        assert np.allclose(rep.gaps, rep64.gaps, atol=1e-8)

    def test_highprec_certificates_at_large_radius(self):
        rep = highprec.worst_trajectory_report(0.17, 20.0)
        assert [c for c in rep.checks(20.0) if not c[3]] == []
        assert rep.min_gap >= 10.0


    def test_highprec_form_rounds_like_mpf_arithmetic(self):
        # _mdot runs on raw libmp tuples; it must round every product and
        # partial sum exactly as mpf's operators do at the replay precision
        rng = make_rng(5)
        with mp.workdps(highprec.DPS):
            for D in (2, 7, 40):
                u = [mpf(t) * mp.cosh(20) for t in rng.normal(size=D).tolist()]
                v = [mpf(t) / 3 for t in rng.normal(size=D).tolist()]
                ref = mpf(0)
                for a, b in zip(u[1:], v[1:]):
                    ref += a * b
                ref -= u[0] * v[0]
                assert highprec._mdot(u, v)._mpf_ == ref._mpf_


# WorstReplayReport fields of the mpmath replay, recorded before the replay
# dropped its frame transports and moved its forms onto raw libmp tuples, and
# (for (0.1, 20.0), the case `polyak-worst` certifies beyond r = 10) before it
# built its ladder through resisting._ladder; the replay must reproduce every
# one of them exactly.
_PINNED_REPLAYS = {
    (0.17, 20.0): dict(
        d=21, M=2.9411764705882355,
        gaps=[20.0, 19.689679755113403, 19.379359510226802, 19.069039265340205,
              18.758719020453604, 18.448398775567007, 18.13807853068041,
              17.82775828579381, 17.517438040907212, 17.207117796020615,
              16.896797551134014, 16.58647730624742, 16.276157061360824,
              15.965836816474232, 15.655516571587645, 15.345196326701068,
              15.03487608181451, 14.724555836927985, 14.414235592041527,
              14.103915347155187, 13.793595102269073],
        radii=[20.0, 19.689679755113403, 19.379359510226802, 19.069039265340205,
               18.758719020453604, 18.448398775567007, 18.13807853068041,
               17.82775828579381, 17.517438040907212, 17.207117796020615,
               16.896797551134014, 16.58647730624742, 16.276157061360824,
               15.965836816474232, 15.655516571587645, 15.345196326701068,
               15.03487608181451, 14.724555836927985, 14.414235592041527,
               14.103915347155187, 13.793595102269073],
        max_ladder_dist=7.139953862332619e-29,
        max_radius_err=2.1333740975563566e-56,
        max_step_err=3.46894207895272e-57,
        max_gap_err=5.484716745295696e-56,
        min_gap=13.793595102269073),
    (0.16, 5.0): dict(
        d=6, M=3.125,
        gaps=[5.0, 4.736553991204604, 4.4731298251546, 4.209742642948285,
              3.9464180664165522, 3.6831994252026976],
        radii=[5.0, 4.736553991204604, 4.4731298251546, 4.209742642948285,
               3.9464180664165522, 3.6831994252026976],
        max_ladder_dist=1.1156177909894717e-30,
        max_radius_err=3.111507638930571e-61,
        max_step_err=3.111507638930571e-61,
        max_gap_err=6.223015277861142e-61,
        min_gap=3.6831994252026976),
    (0.1, 20.0): dict(
        d=62, M=5.0,
        gaps=[20.0, 19.91282330642761, 19.825646612855223, 19.738469919282835,
              19.651293225710443, 19.564116532138055, 19.476939838565666,
              19.389763144993278, 19.30258645142089, 19.2154097578485,
              19.12823306427611, 19.04105637070372, 18.953879677131333,
              18.866702983558945, 18.779526289986556, 18.692349596414168,
              18.60517290284178, 18.517996209269388, 18.430819515697,
              18.34364282212461, 18.256466128552223, 18.169289434979834,
              18.082112741407446, 17.994936047835058, 17.907759354262666,
              17.820582660690278, 17.73340596711789, 17.6462292735455,
              17.559052579973113, 17.471875886400724, 17.384699192828336,
              17.297522499255948, 17.210345805683556, 17.123169112111167,
              17.03599241853878, 16.94881572496639, 16.861639031394002,
              16.774462337821614, 16.687285644249226, 16.600108950676837,
              16.51293225710445, 16.42575556353206, 16.338578869959672,
              16.251402176387288, 16.1642254828149, 16.07704878924251,
              15.989872095670124, 15.902695402097738, 15.815518708525353,
              15.728342014952966, 15.641165321380582, 15.553988627808199,
              15.466811934235816, 15.379635240663433, 15.292458547091053,
              15.205281853518674, 15.118105159946296, 15.030928466373922,
              14.94375177280155, 14.85657507922918, 14.769398385656816,
              14.682221692084456],
        radii=[20.0, 19.91282330642761, 19.825646612855223, 19.738469919282835,
               19.651293225710443, 19.564116532138055, 19.476939838565666,
               19.389763144993278, 19.30258645142089, 19.2154097578485,
               19.12823306427611, 19.04105637070372, 18.953879677131333,
               18.866702983558945, 18.779526289986556, 18.692349596414168,
               18.60517290284178, 18.517996209269388, 18.430819515697,
               18.34364282212461, 18.256466128552223, 18.169289434979834,
               18.082112741407446, 17.994936047835058, 17.907759354262666,
               17.820582660690278, 17.73340596711789, 17.6462292735455,
               17.559052579973113, 17.471875886400724, 17.384699192828336,
               17.297522499255948, 17.210345805683556, 17.123169112111167,
               17.03599241853878, 16.94881572496639, 16.861639031394002,
               16.774462337821614, 16.687285644249226, 16.600108950676837,
               16.51293225710445, 16.42575556353206, 16.338578869959672,
               16.251402176387288, 16.1642254828149, 16.07704878924251,
               15.989872095670124, 15.902695402097738, 15.815518708525353,
               15.728342014952966, 15.641165321380582, 15.553988627808199,
               15.466811934235816, 15.379635240663433, 15.292458547091053,
               15.205281853518674, 15.118105159946296, 15.030928466373922,
               14.94375177280155, 14.85657507922918, 14.769398385656816,
               14.682221692084456],
        max_ladder_dist=1.4279907724665237e-28,
        max_radius_err=7.192685518457465e-56,
        max_step_err=8.239116652506205e-57,
        max_gap_err=3.460419659529689e-55,
        min_gap=14.682221692084456),
}


@pytest.mark.parametrize("eps,r", sorted(_PINNED_REPLAYS))
def test_highprec_report_pinned(eps, r):
    rep = dataclasses.asdict(highprec.worst_trajectory_report(eps, r))
    pinned = _PINNED_REPLAYS[eps, r]
    assert rep.keys() == pinned.keys()
    for name, value in pinned.items():
        assert rep[name] == value, name


# WorstReplayReport fields of the float64 run, and the SHA-256 of the bytes of
# the ladder, x*, the half-space anchors and normals and every gtilde answer,
# recorded while worst_build still transported its frames; keeping only the
# turned axes must reproduce every one of them exactly.
_PINNED_FLOAT64 = {
    (0.1, 10.0): dict(
        sha256="77f322727404a849171172672ff50ada0fc712680ecd5f55ad14837ef7696ca6",
        d=31, M=5.0,
        gaps=[9.999999993243684, 9.912823300063897, 9.82564660695889,
              9.738469913942907, 9.651293221032908, 9.564116528249079,
              9.47693983561545, 9.389763143160634, 9.302586450918687,
              9.215409758930159, 9.128233067243318, 9.041056375915629,
              8.953879685015503, 8.866702994624378, 8.779526304839209,
              8.692349615775413, 8.605172927570399, 8.51799624038774,
              8.430819554422172, 8.343642869905523, 8.256466187113777,
              8.169289506375485, 8.082112828081781, 7.994936152698301,
              7.907759480779375, 7.820582812984914, 7.733406150100532,
              7.646229493061482, 7.55905284298116, 7.471876201185033,
              7.3846995692510395],
        radii=[10.0, 9.912823306820211, 9.825646613715204, 9.738469920699222,
               9.651293227789223, 9.564116535005393, 9.476939842371765,
               9.389763149916948, 9.302586457675002, 9.215409765686474,
               9.128233073999633, 9.041056382671943, 8.953879691771816,
               8.86670300138069, 8.77952631159552, 8.692349622531724,
               8.605172934326708, 8.517996247144048, 8.43081956117848,
               8.343642876661828, 8.25646619387008, 8.169289513131787,
               8.082112834838082, 7.994936159454602, 7.907759487535674,
               7.820582819741213, 7.73340615685683, 7.646229499817779,
               7.559052849737453, 7.471876207941323, 7.384699576007327],
        max_ladder_dist=1.7320910099025678e-09,
        max_radius_err=6.209904590548376e-09,
        max_step_err=8.058027578528026e-10,
        max_gap_err=6.756316395239992e-09,
        min_gap=7.3846995692510395),
    (0.17, 6.0): dict(
        sha256="ee0386d2a64d6e4ee3e8ab9c421df52b4252cbb258086e2fd5657e6716369c8a",
        d=6, M=2.941176470588235,
        gaps=[6.0000000000017355, 5.689685039794853, 5.37937462481879,
              5.069072663964956, 4.758786426888439, 4.4485294313497326],
        radii=[6.0, 5.689685039793117, 5.379374624817054, 5.06907266396322,
               4.758786426886702, 4.448529431347995],
        max_ladder_dist=2.314292362435282e-12,
        max_radius_err=1.9255708139098715e-12,
        max_step_err=8.240075288767912e-13,
        max_gap_err=1.737276988933445e-12,
        min_gap=4.4485294313497326),
}


@pytest.mark.parametrize("eps,r", sorted(_PINNED_FLOAT64))
def test_float64_report_pinned(eps, r):
    pinned = dict(_PINNED_FLOAT64[eps, r])
    inst = worst_build(eps, r)
    h = hashlib.sha256()
    for y in inst.ladder:
        h.update(y.coords.tobytes())
    h.update(inst.xstar.coords.tobytes())
    for L in inst.halfspaces:
        h.update(L.anchor.coords.tobytes())
        h.update(L.normal.vec.tobytes())
    for k in range(inst.d - 1):
        h.update(inst.gtilde(k).tobytes())
    assert h.hexdigest() == pinned.pop("sha256")
    rep = dataclasses.asdict(resisting.worst_trajectory_report(eps, r))
    assert rep.keys() == pinned.keys()
    for name, value in pinned.items():
        assert rep[name] == value, name


def test_build_grid_bytes_pinned():
    # ladder, x*, axes, radii and deltas, anchors and normals of 24 builds,
    # both picks and r up to the float64 limit, recorded while worst_build
    # and the mpmath replay each ran their own ladder loop
    h = hashlib.sha256()
    for eps in (0.1, 0.15, 0.17):
        for r in (2.0, 6.0, 10.0, 14.0):
            for pick in (+1, -1):
                inst = worst_build(eps, r, pick)
                for y in inst.ladder:
                    h.update(y.coords.tobytes())
                h.update(inst.xstar.coords.tobytes())
                h.update(inst.axes.tobytes())
                h.update(np.array(inst.radii + inst.deltas).tobytes())
                for L in inst.halfspaces:
                    h.update(L.anchor.coords.tobytes())
                    h.update(L.normal.vec.tobytes())
    assert h.hexdigest() == (
        "079dd2b77212a7faeee0e7572f57c8a9a766f89f0046e8928cff924c34ce584b")


def test_one_ladder_construction(monkeypatch):
    calls = []
    real = resisting._ladder

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(resisting, "_ladder", counting)
    assert worst_build(0.15, 6.0).d == calls[-1]
    assert highprec.worst_trajectory_report(0.16, 5.0).d == calls[-1]
    assert len(calls) == 2


class TestReplayGuards:
    # both replays step through solvers._polyak_step and refuse what
    # polyak_sgd refuses; a value four times the ladder's sees
    # cos(theta) = 4 * 4 eps = 1.6 at the first step
    def test_cosine_above_one_raises_on_both_sides(self, monkeypatch):
        value = highprec._replay_value
        monkeypatch.setattr(highprec, "_replay_value", lambda *a: 4 * value(*a))
        with pytest.raises(CertificateError, match=r"cos\(theta\)=1\.[56]"):
            highprec.worst_trajectory_report(0.1, 11.0)
        answer = resisting.WorstFunctionOracle.eval

        def scaled(self, x):
            F, g = answer(self, x)
            return 4 * F, g

        monkeypatch.setattr(resisting.WorstFunctionOracle, "eval", scaled)
        with pytest.raises(CertificateError, match=r"cos\(theta\)=1\.[56]"):
            resisting.worst_trajectory_report(0.1, 11.0)

    def test_value_below_fstar_raises(self, monkeypatch):
        monkeypatch.setattr(highprec, "_replay_value", lambda *a: mpf("-1e-29"))
        with pytest.raises(CertificateError, match="below f"):
            highprec.worst_trajectory_report(0.1, 11.0)


class TestA2Check:
    def test_polyak_trajectory_passes(self):
        inst = worst_build(0.15, 6.0)
        f = WorstFunctionOracle(inst)
        tr = polyak_sgd(f, fstar=0.0, x0=inst.ladder[0], s0=inst.r, T=inst.T)
        rep = a2_check(inst, tr)
        assert rep.a1_all and rep.a2_all

    def test_jump_to_xstar_fails_span_condition(self):
        inst = worst_build(0.15, 6.0)
        f = WorstFunctionOracle(inst)
        tr = Trace()
        F0, g0 = f.eval(inst.ladder[0])
        tr.samples.append(OracleSample(F0, inst.ladder[0], g0))
        F1, g1 = f.eval(inst.xstar)
        tr.samples.append(OracleSample(F1, inst.xstar, g1))
        rep = a2_check(inst, tr)
        assert not rep.rows[1].a1_ok

    def test_nan_margin_fails_containment(self):
        # a NaN margin behind a finite one must still fail the check
        class NanHalfSpace:
            def margin(self, x):
                return float("nan")

        inst = worst_build(0.15, 6.0)
        f = WorstFunctionOracle(inst)
        tr = polyak_sgd(f, fstar=0.0, x0=inst.ladder[0], s0=inst.r, T=3)
        bad = dataclasses.replace(
            inst, halfspaces=[inst.halfspaces[0], NanHalfSpace(), *inst.halfspaces[2:]])
        rep = a2_check(bad, tr)
        assert rep.rows[1].a2_ok
        assert not rep.rows[2].a2_ok

    def test_empty_trace_vacuous(self):
        inst = worst_build(0.15, 6.0)
        rep = a2_check(inst, Trace())
        assert rep.a1_all and rep.a2_all and rep.rows == []


class TestGapBound:
    def test_sqdist_instance(self, rng):
        xref = base_point(3)
        r = 1.5
        z = exp(xref, hg.frame_at_base(3)[0].scaled(r))
        f = SqDistToPoint(z)
        f.smoothness = float(zeta(r))
        rep = gap_bound_check(f, xref, r)
        assert rep.ok
        assert rep.gap == pytest.approx(0.5 * r * r, abs=1e-10)
        assert rep.bound == pytest.approx(4.0 * r * r, rel=1e-12)

    def test_constant_function(self):
        # the constant states its own minimum and smoothness
        f = Constant(3.0)
        rep = gap_bound_check(f, base_point(2), 1.0)
        assert rep.ok and rep.gap == 0.0

    def test_smoothed_game_function(self):
        game = smooth_new(4, 1.0)
        play(game, "polyak", seed=0)
        f, _, _ = game.finalize()
        rep = gap_bound_check(f, game.xref, game.r)
        assert rep.ok


def _exhaustive_value(x, xs, normals, nf, costh):
    """The replay's value over every fan normal, as it ran before the screen."""
    term = mpf(0)
    for n in normals:
        m = highprec._mdot(x, n)
        if m < 0:
            term = max(term, mp.asinh(-m))
    return highprec._dist(x, xs) + term / costh


@pytest.mark.parametrize("eps,r", [(0.1, 11.0), (0.1, 14.0), (0.1, 20.0), (0.15, 30.0)])
def test_screened_replay_equals_exhaustive(eps, r, monkeypatch):
    screened = dataclasses.asdict(highprec.worst_trajectory_report(eps, r))
    monkeypatch.setattr(highprec, "_replay_value", _exhaustive_value)
    exhaustive = dataclasses.asdict(highprec.worst_trajectory_report(eps, r))
    assert screened.keys() == exhaustive.keys()
    for name, value in exhaustive.items():
        assert screened[name] == value, name


def _screen_case(x, normals):
    """Candidates of the fan screen for mpf vectors, after checking the bound
    |mf_j - <x, n_j>| <= E_j / 2 on every finite entry and that every normal
    with the most negative form is a candidate; returns (candidates, forms)."""
    with mp.workdps(highprec.DPS):
        x = [mpf(v) for v in x]
        normals = [[mpf(v) for v in n] for n in normals]
        nf = highprec._fan_rows(normals)
        mf, E = highprec._fan_screen(nf, x)
        cand = highprec._fan_candidates(mf, E)
        m = [highprec._mdot(x, n) for n in normals]
        for j, (a, e) in enumerate(zip(mf, E)):
            if np.isfinite(a) and np.isfinite(e):
                assert abs(mpf(a) - m[j]) <= mpf(e) / 2, j
        lowest = min(m)
        if lowest < 0:
            assert {j for j, v in enumerate(m) if v == lowest} <= set(cand)
        # the screened fold gives the exhaustive fold's bits
        fold = [mpf(0), mpf(0)]
        for k, js in enumerate((cand, range(len(m)))):
            for j in js:
                if m[j] < 0:
                    fold[k] = max(fold[k], mp.asinh(-m[j]))
        assert fold[0] == fold[1]
    return cand, m


class TestFanScreen:
    # forms are <x, n> = sum_{i>=1} x_i n_i - x_0 n_0, the mpf cases are built
    # at the replay's precision
    @pytest.fixture(autouse=True)
    def _replay_precision(self):
        with mp.workdps(highprec.DPS):
            yield
    def test_exact_zero_products(self):
        # all forms vanish: nothing is provably negative, every index with a
        # positive upper bound stays
        cand, m = _screen_case([1, 0, 0, 0], [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert m == [0, 0, 0] and cand == [0, 1, 2]
        # a clearly negative form rules the zeros out
        cand, m = _screen_case([1, 0, 0, 0], [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]])
        assert cand == [1]

    def test_either_sign_inside_the_bound(self):
        # cosh 30-size entries cancel to +-cosh(30) 1e-30: the float64 form
        # cannot tell the sign, so both stay next to a form of -1e-3
        ch, sh = mp.cosh(30), mp.sinh(30)
        d = mpf("1e-30")
        cand, m = _screen_case([ch, sh, 0], [[sh + d, ch, 0], [sh - d, ch, 0], [0, 0, -1e-3]])
        assert m[0] < 0 < m[1] and cand == [0, 1, 2]

    def test_near_equal_negative_products(self):
        # two forms 1e-40 apart both stay; a form 0.5 behind them goes
        cand, m = _screen_case([1, 1, 0], [[0, -1, 0], [0, -1 - mpf("1e-40"), 0], [0, -0.5, 0]])
        assert m[1] < m[0] and cand == [0, 1]

    def test_underflowing_entries(self):
        # products below the float64 range round to zero or to a subnormal:
        # the mpf forms -1e-400 and -1e-800 stay, and decide the max; the
        # subnormal -1.5 2^-1060 rules them both out
        x = [0, mpf("1e-200"), mpf("1e-400"), mpf(2) ** -1060]
        normals = [[0, mpf("-1e-200"), 0, 0], [0, 0, mpf("-1e-400"), 0], [0, 0, 0, -1.5]]
        cand, m = _screen_case(x, normals[:2])
        assert m[0] < m[1] < 0 and cand == [0, 1]
        cand, m = _screen_case(x, normals)
        assert min(m) == m[2] and cand == [2]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_entry_beyond_float64_makes_every_index_a_candidate(self):
        cand, m = _screen_case([1, mpf("1e400"), 0], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert cand == [0, 1, 2]
        cand, m = _screen_case([1, 1, 0], [[0, mpf("-1e400"), 0], [0, 1, 0]])
        assert cand == [0, 1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.integers(1, 5), st.integers(-1100, 40),
           st.integers(0, 2**32 - 1))
    def test_random_scales(self, D, n, low, seed):
        # entries at scales from 2^low to 2^40; the last normal's form
        # cancels to 2^-150 of its terms
        rng = make_rng(seed)

        def entries(k):
            return [mpf(float(v)) * mpf(2) ** int(e) for v, e in
                    zip(rng.standard_normal(k), rng.integers(low, 41, k))]
        x = entries(D)
        normals = [entries(D) for _ in range(n)]
        c = entries(D)
        c[0] = sum(a * b for a, b in zip(x[1:], c[1:])) / x[0] \
            * (1 + mpf(float(rng.standard_normal())) * mpf(2) ** -150)
        _screen_case(x, normals + [c])

    def test_screen_cuts_the_exact_forms(self, monkeypatch):
        # the 4,394 forms of the exhaustive replay at eps = 0.1, r = 20 fall to 670
        calls = []
        real = highprec._mdot
        monkeypatch.setattr(highprec, "_mdot", lambda u, v: calls.append(1) or real(u, v))
        highprec.worst_trajectory_report(0.1, 20.0)
        assert len(calls) == 670
