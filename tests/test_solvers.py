import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from hypergconv import base_point, dist, exp, zeta
from hypergconv.highprec import DPS
from hypergconv.instances import max_of_distances_instance
from hypergconv.oracles import FnOracle, SqDistToPoint, fn_dist_point
from hypergconv.sampling import make_rng
from hypergconv.solvers import (
    COS_CLAMP_SLACK,
    CertificateError,
    _polyak_step,
    polyak_sgd,
    rgd,
)

from conftest import rand_point, rand_unit
from helpers import polyak_guarantee


class TestPolyak:
    def test_one_step_exact_on_distance_function(self, rng):
        z = rand_point(rng, 3, 1.5)
        x0 = rand_point(rng, 3, 1.5)
        f = fn_dist_point(z)
        s0 = dist(x0, z)
        tr = polyak_sgd(f, fstar=0.0, x0=x0, s0=s0, T=5)
        # cos(theta_0) = 1, so the first step lands on the minimizer (up to
        # one rounding-scale cleanup step)
        c0 = tr.gaps[0] / (s0 * tr.samples[0].g.norm)
        assert c0 == pytest.approx(1.0, abs=1e-12)
        assert tr.step_lengths[0] == pytest.approx(s0, abs=1e-12)
        assert len(tr) <= 3
        assert dist(tr.samples[1].x, z) < 1e-9
        assert tr.gaps[1] < 1e-9

    def test_euclidean_limit_of_step(self, rng):
        # for tiny radii the step approaches gap/|g|^2
        z = rand_point(rng, 3, 1e-3)
        x0 = base_point(3)
        f = fn_dist_point(z)
        s0 = 1e-3
        if dist(x0, z) > s0:
            z = exp(x0, rand_unit(rng, x0).scaled(0.8e-3))
            s0 = 1e-3
        tr = polyak_sgd(f, fstar=0.0, x0=x0, s0=s0, T=1 + 1)
        gap = tr.gaps[0]
        gnorm = tr.samples[0].g.norm
        euclid = gap / gnorm ** 2
        assert tr.step_lengths[0] / gnorm == pytest.approx(euclid, rel=1e-3)

    def test_radius_certificate_and_cosh_identity(self):
        rng = make_rng(5)
        x0 = base_point(4)
        for _ in range(10):
            f, xstar, fstar = max_of_distances_instance(rng, rand_point(rng, 4, 1.0))
            s0 = dist(x0, xstar) + 0.5
            tr = polyak_sgd(f, fstar, x0, s0, T=40)
            for k, s in enumerate(tr.samples):
                assert dist(s.x, xstar) <= tr.radii[k] + 1e-6
            for k in range(len(tr.step_lengths)):
                c = tr.gaps[k] / (tr.radii[k] * tr.samples[k].g.norm)
                c = min(c, 1.0)
                pred = np.cosh(tr.radii[k]) * np.sqrt(max(1.0 - c * c * np.tanh(tr.radii[k]) ** 2, 0.0))
                assert np.cosh(tr.radii[k + 1]) == pytest.approx(pred, abs=1e-9)
                assert tr.radii[k + 1] <= tr.radii[k] + 1e-12

    @pytest.mark.parametrize("T", [10, 100])
    def test_guarantee_on_seeded_instances(self, T):
        rng = make_rng(77)
        x0 = base_point(3)
        for _ in range(20):
            center = rand_point(rng, 3, 1.5)
            f, xstar, fstar = max_of_distances_instance(rng, center)
            s0 = dist(x0, xstar) + 1.0
            tr = polyak_sgd(f, fstar, x0, s0, T=T)
            bound = polyak_guarantee(s0, 1.0, T)
            assert min(g * g for g in tr.gaps) <= bound + 1e-12

    def test_wrong_fstar_raises(self, rng):
        z = rand_point(rng, 3, 1.0)
        f = fn_dist_point(z)
        x0 = base_point(3)
        with pytest.raises(CertificateError):
            # claimed optimum far below reality makes cos(theta) > 1
            polyak_sgd(f, fstar=-10.0, x0=x0, s0=0.5, T=5)

    def test_value_below_fstar_raises(self, rng):
        z = rand_point(rng, 3, 1.0)
        f = fn_dist_point(z)
        with pytest.raises(CertificateError):
            polyak_sgd(f, fstar=1.0, x0=z, s0=2.0, T=3)

    # a NaN answer raises at once, whether or not a step would follow it
    @pytest.mark.parametrize("T,first_nan", [(1, 1), (4, 2)])
    def test_nan_answer_raises(self, rng, T, first_nan):
        f = fn_dist_point(rand_point(rng, 3, 1.0))
        calls = []

        class NanFrom(FnOracle):
            def eval(self, x):
                calls.append(x)
                F, g = f.eval(x)
                return (np.nan if len(calls) >= first_nan else F), g

        with pytest.raises(CertificateError):
            polyak_sgd(NanFrom(), fstar=0.0, x0=base_point(3), s0=3.0, T=T)
        assert len(calls) == first_nan

    # a NaN subgradient with a finite value raises on its own cause, also as
    # the last answer (which takes no step)
    @pytest.mark.parametrize("T", [1, 3])
    def test_nan_subgradient_raises(self, rng, T):
        f = fn_dist_point(rand_point(rng, 3, 1.0))
        calls = []

        class NanGrad(FnOracle):
            def eval(self, x):
                calls.append(x)
                F, g = f.eval(x)
                return F, g.scaled(np.nan)

        with pytest.raises(CertificateError, match="subgradient norm nan at step 0"):
            polyak_sgd(NanGrad(), fstar=0.0, x0=base_point(3), s0=3.0, T=T)
        assert len(calls) == 1


# the two inline recursions that _polyak_step replaced, verbatim: the step of
# polyak_sgd and that of the mpmath replay in highprec.worst_trajectory_report
def inline_float64_step(gap, gnorm, s):
    c = gap / (s * gnorm)
    c = float(np.minimum(c, 1.0))
    eta_g = float(np.arctanh(c * np.tanh(s)))
    s = float(np.arcsinh(np.sqrt(max(1.0 - c * c, 0.0)) * np.sinh(s)))
    return eta_g, s


def inline_mpmath_step(F, gn, s):
    c = min(F / (s * gn), mpf(1))
    eta_g = mp.atanh(c * mp.tanh(s))
    s = mp.asinh(mp.sqrt(max(1 - c * c, mpf(0))) * mp.sinh(s))
    return eta_g, s


class TestPolyakStep:
    # gap = c s |g| with c in (0, 1], formed in each side's arithmetic; the
    # rounded quotient may sit an ulp above 1, inside the slack, where both
    # old steps clamped
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 30.0),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_equals_inline_recursions(self, gnorm, s, c):
        gap = c * s * gnorm
        # past s ~ 18.7 tanh(s) rounds to 1, and c = 1 steps infinitely in both
        with np.errstate(divide="ignore"):
            new = [float(t) for t in _polyak_step(np, gap, gnorm, s, COS_CLAMP_SLACK)]
            old = inline_float64_step(gap, gnorm, s)
        assert [t.hex() for t in new] == [t.hex() for t in old]
        with mp.workdps(DPS):
            args = mpf(c) * mpf(s) * mpf(gnorm), mpf(gnorm), mpf(s)
            new = _polyak_step(mp, *args, mpf(10) ** -(DPS // 2))
            assert [t._mpf_ for t in new] == [
                t._mpf_ for t in inline_mpmath_step(*args)]

    # the guards run before any arithmetic of ar, so they hold on both sides
    def test_guards(self):
        with pytest.raises(CertificateError, match="radius hit zero"):
            _polyak_step(mp, mpf(1), mpf(1), mpf(0), mpf(10) ** -30)
        with pytest.raises(CertificateError, match=r"cos\(theta\)"):
            _polyak_step(np, 2.0, 1.0, 1.0, 1e-12)
        with pytest.raises(CertificateError, match=r"cos\(theta\)"):
            _polyak_step(np, np.nan, 1.0, 1.0, 1e-12)


class TestRGD:
    def test_zero_step_constant(self, rng):
        z = rand_point(rng, 3, 1.0)
        tr = rgd(fn_dist_point(z), step=0.0, x0=base_point(3), T=4)
        assert all(dist(s.x, base_point(3)) < 1e-12 for s in tr.samples)

    def test_monotone_on_sqdist(self):
        rng = make_rng(9)
        for _ in range(20):
            z = rand_point(rng, 3, 2.0)
            x0 = rand_point(rng, 3, 2.0)
            s0 = dist(x0, z)
            f = SqDistToPoint(z)
            tr = rgd(f, step=1.0 / float(zeta(s0)), x0=x0, T=15)
            vals = [s.F for s in tr.samples]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_gradient_fixed_point(self, rng):
        z = rand_point(rng, 3, 1.0)
        tr = rgd(SqDistToPoint(z), step=0.5, x0=z, T=3)
        assert all(dist(s.x, z) < 1e-12 for s in tr.samples)
