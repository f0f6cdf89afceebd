import numpy as np
import pytest

import hypergconv as hg
from hypergconv import (
    DomainError, GeometryViolation, HTangent, base_point, dist, exp, log, mink_inner)
from hypergconv import oracles
from hypergconv.interpolation import (
    MINIMAL_TOL,
    ROUNDTRIP_TOL,
    InterpData,
    NotApplicable,
    check_necessary,
    construct_sufficient,
    minimal_function,
    minimal_values_hold,
    obstruction_certificate,
    obstructs,
    roundtrip_holds,
)
from hypergconv.oracles import (
    GCONVEX_SLACK,
    OracleSample,
    ShiftedMax,
    fn_sqdist_point,
    gconvex_holds,
    midpoint_convexity_gap,
)
from hypergconv.sampling import random_point_in_ball

from conftest import rand_point, rand_tangent, rand_unit

# frozen 30-digit evaluations for theta = 0.8
H_08 = 0.5909907039360350
LOWER_08 = 0.1517367408592769


def sq_samples(rng, z, n=5, radius=0.45):
    src = fn_sqdist_point(z)
    items = []
    for _ in range(n):
        p = random_point_in_ball(rng, z, radius)
        F, g = src.eval(p)
        items.append(OracleSample(F, p, g))
    return items


class TestNecessary:
    def test_single_point_passes(self, rng):
        x = rand_point(rng, 2)
        data = InterpData([OracleSample(1.0, x, HTangent(x, np.zeros(3)))])
        assert check_necessary(data).ok

    def test_zoo_data_passes(self, rng):
        z = rand_point(rng, 3, 1.0)
        data = InterpData(sq_samples(rng, z, n=6, radius=1.0), mu=1.0)
        rep = check_necessary(data)
        assert rep.ok and rep.slack >= -1e-9

    def test_violated_pair_detected(self, rng):
        x = base_point(2)
        y = exp(x, hg.frame_at_base(2)[0].scaled(1.0))
        data = InterpData([
            OracleSample(0.0, x, HTangent(x, np.zeros(3))),
            OracleSample(-1.0, y, HTangent(y, np.zeros(3))),
        ])
        # F_y = -1 < F_x + <0, log> = 0 fails for (i, j) = (0, 1)
        rep = check_necessary(data)
        assert not rep.ok
        assert rep.worst_pair == (0, 1)


class TestObstruction:
    @pytest.mark.parametrize("theta", np.linspace(0.1, 1.4, 14))
    def test_grid(self, theta):
        data, lower, upper = obstruction_certificate(float(theta))
        assert obstructs(data, lower, upper) and upper == 0.0

    def test_frozen_values(self):
        data, lower, upper = obstruction_certificate(0.8)
        assert lower == pytest.approx(LOWER_08, abs=1e-12)
        h = np.arctanh(np.cos(0.8) * np.tanh(1.0))
        assert h == pytest.approx(H_08, abs=1e-12)

    def test_geometry_matches_stated_triangle(self):
        data, _, _ = obstruction_certificate(0.7)
        x1, x2, x3 = (s.x for s in data.items)
        assert dist(x1, x2) == pytest.approx(1.0, abs=1e-12)
        assert dist(x1, x3) == pytest.approx(1.0, abs=1e-12)
        # altitude foot is the midpoint of the base
        mid = exp(x2, log(x2, x3).scaled(0.5))
        h = np.arctanh(np.cos(0.7) * np.tanh(1.0))
        assert dist(x1, mid) == pytest.approx(h, abs=1e-10)
        # apex gradient norm 1/cos(theta)
        assert data.items[0].g.norm == pytest.approx(1 / np.cos(0.7), abs=1e-10)

    def test_perpendicular_variant_passes(self):
        data, lower, upper = obstruction_certificate(0.8, perpendicular_grads=True)
        assert obstructs(data, lower, upper)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            obstruction_certificate(0.0)


class TestConstructSufficient:
    def test_single_zero_gradient_point(self, rng):
        x1 = rand_point(rng, 3, 1.0)
        data = InterpData([OracleSample(2.0, x1, HTangent(x1, np.zeros(4)))], mu=1.0)
        f = construct_sufficient(data)
        assert not isinstance(f, NotApplicable)
        for _ in range(20):
            q = rand_point(rng, 3, 2.0)
            assert f.value(q) == pytest.approx(
                2.0 + 0.5 * dist(x1, q) ** 2, abs=1e-10)

    def test_roundtrip_on_zoo_data(self, rng):
        z = rand_point(rng, 3, 1.0)
        data = InterpData(sq_samples(rng, z), mu=1.0)
        f = construct_sufficient(data)
        assert not isinstance(f, NotApplicable)
        errs, gaps = [], []
        for s in data.items:
            # tighter than the row's ROUNDTRIP_TOL on this data
            assert f.value(s.x) == pytest.approx(s.F, abs=1e-12)
            errs.append(abs(f.value(s.x) - s.F))
            for _ in range(30):
                q = rand_point(rng, 3, 2.0)
                gaps.append(f.value(q) - s.F - mink_inner(s.g.vec, log(s.x, q).vec))
        assert roundtrip_holds(np.max(errs), np.min(gaps))

    def test_missed_value_raises(self, rng, monkeypatch):
        z = rand_point(rng, 3, 1.0)
        data = InterpData(sq_samples(rng, z), mu=1.0)
        value = ShiftedMax.value
        monkeypatch.setattr(ShiftedMax, "value",
                            lambda self, x: value(self, x) + 2 * ROUNDTRIP_TOL)
        with pytest.raises(GeometryViolation, match="misses value 0"):
            construct_sufficient(data)

    def test_strong_convexity_midpoint(self, rng):
        z = rand_point(rng, 3, 1.0)
        data = InterpData(sq_samples(rng, z), mu=1.0)
        f = construct_sufficient(data)
        sc = data.mu / 2.0
        for _ in range(100):
            a, b = rand_point(rng, 3, 1.5), rand_point(rng, 3, 1.5)
            mid = exp(a, log(a, b).scaled(0.5))
            lhs = 0.5 * (f.value(a) + f.value(b)) \
                - (sc / 2.0) * 0.25 * dist(a, b) ** 2
            assert f.value(mid) <= lhs + 1e-9

    def test_large_gradient_refused(self, rng):
        x1 = rand_point(rng, 3)
        g = rand_unit(rng, x1)  # norm 1 > mu/2 = 0.25
        data = InterpData([OracleSample(0.0, x1, g)], mu=0.5)
        out = construct_sufficient(data)
        assert isinstance(out, NotApplicable)

    def test_failing_necessary_refused(self, rng):
        x = base_point(2)
        y = exp(x, hg.frame_at_base(2)[0].scaled(1.0))
        data = InterpData([
            OracleSample(0.0, x, HTangent(x, np.zeros(3))),
            OracleSample(-5.0, y, HTangent(y, np.zeros(3))),
        ], mu=1.0)
        assert isinstance(construct_sufficient(data), NotApplicable)


class TestMinimalFunction:
    def test_perpendicular_gradient_gives_anchor_value(self, rng):
        y = rand_point(rng, 3, 1.0)
        x = exp(y, rand_unit(rng, y).scaled(1.2))
        ly = log(y, x)
        u = rand_unit(rng, y)
        perp = HTangent(y, u.vec - mink_inner(u.vec, ly.vec) / ly.norm ** 2 * ly.vec)
        if perp.norm < 1e-9:
            return
        f, val = minimal_function(0.7, y, perp, x)
        assert val == pytest.approx(0.7, abs=1e-10)

    def test_aligned_negative_gradient(self, rng):
        y = rand_point(rng, 3, 1.0)
        x = exp(y, rand_unit(rng, y).scaled(1.5))
        g = log(y, x).scaled(-0.6 / 1.5)  # norm 0.6 pointing away from x
        f, val = minimal_function(1.0, y, g, x)
        assert val == pytest.approx(1.0 - 0.6 * dist(x, y), abs=1e-9)

    def test_random_triples_achieve_target(self, rng):
        for _ in range(200):
            y = rand_point(rng, 3, 1.0)
            g = rand_tangent(rng, y, 2.0)
            x = rand_point(rng, 3, 1.5)
            if dist(x, y) < 1e-6:
                continue
            f, val = minimal_function(0.3, y, g, x)
            target = 0.3 + mink_inner(g.vec, log(y, x).vec)
            assert minimal_values_hold(abs(val - target))

    def test_interpolates_anchor(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 1.0)
        x = rand_point(rng, 3, 1.0)
        if dist(x, y) < 1e-6:
            x = exp(y, rand_unit(rng, y).scaled(0.5))
        f, _ = minimal_function(-0.4, y, g, x)
        assert f.value(y) == pytest.approx(-0.4, abs=1e-10)
        for _ in range(100):
            q = rand_point(rng, 3, 2.0)
            assert gconvex_holds(f.value(q) - (-0.4) - mink_inner(g.vec, log(y, q).vec))

    def test_gconvex(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 1.5)
        x = exp(y, rand_unit(rng, y).scaled(1.0))
        f, _ = minimal_function(0.0, y, g, x)
        for _ in range(100):
            a, b = rand_point(rng, 3, 2.0), rand_point(rng, 3, 2.0)
            assert midpoint_convexity_gap(f, a, b) >= -1e-9

    def test_missed_target_raises(self, rng, monkeypatch):
        y = rand_point(rng, 3, 1.0)
        x = exp(y, rand_unit(rng, y).scaled(1.2))
        monkeypatch.setattr(oracles._Sum, "value",
                            lambda self, q: self.eval(q)[0] + 2 * MINIMAL_TOL)
        with pytest.raises(GeometryViolation, match="off target"):
            minimal_function(0.5, y, rand_tangent(rng, y, 1.0), x)

    def test_coincident_rejected(self, rng):
        y = rand_point(rng, 3)
        with pytest.raises(DomainError):
            minimal_function(0.0, y, rand_unit(rng, y), y)


class TestCheckEdges:
    # each interp rule is read from `interpolation`: a value at its tolerance
    # passes, the next double past it fails, and a NaN fails
    def test_tolerances(self):
        assert (ROUNDTRIP_TOL, MINIMAL_TOL) == (1e-9, 1e-8)

    @pytest.mark.parametrize("verdict,at,past", [
        (lambda v: roundtrip_holds(v, 0.0), ROUNDTRIP_TOL, np.inf),
        (lambda v: roundtrip_holds(0.0, v), GCONVEX_SLACK, -np.inf),
        (minimal_values_hold, MINIMAL_TOL, np.inf),
    ], ids=["roundtrip-err", "roundtrip-slack", "minimal-values"])
    def test_edge(self, verdict, at, past):
        assert verdict(at)
        assert not verdict(np.nextafter(at, past))
        assert not verdict(np.nan)

    # a NaN fails the necessary inequalities and raises from both guards
    def test_nan_slack_fails_and_names_its_pair(self):
        x = base_point(2)
        y = exp(x, hg.frame_at_base(2)[0].scaled(1.0))
        data = InterpData([OracleSample(0.0, x, HTangent(x, np.zeros(3))),
                           OracleSample(np.nan, y, HTangent(y, np.zeros(3)))])
        rep = check_necessary(data)
        assert (rep.ok, rep.worst_pair) == (False, (0, 1)) and np.isnan(rep.slack)
        assert not obstructs(data, 1.0, 0.0)

    def test_nan_value_raises_from_construct(self):
        x = base_point(2)
        data = InterpData([OracleSample(np.nan, x, HTangent(x, np.zeros(3)))], mu=1.0)
        with pytest.raises(GeometryViolation, match="misses value 0"):
            construct_sufficient(data)

    def test_nan_value_raises_from_minimal(self, rng):
        y = rand_point(rng, 3, 1.0)
        x = exp(y, rand_unit(rng, y).scaled(1.2))
        with pytest.raises(GeometryViolation, match="off target"):
            minimal_function(np.nan, y, rand_tangent(rng, y, 1.0), x)

    def test_obstruction_is_strict(self):
        data, _, _ = obstruction_certificate(0.8)
        assert obstructs(data, np.nextafter(0.0, 1.0), 0.0)
        assert not obstructs(data, 0.0, 0.0)
        assert not obstructs(data, np.nan, 0.0)
        x = base_point(2)
        y = exp(x, hg.frame_at_base(2)[0].scaled(1.0))
        failing = InterpData([OracleSample(0.0, x, HTangent(x, np.zeros(3))),
                              OracleSample(-1.0, y, HTangent(y, np.zeros(3)))])
        assert not obstructs(failing, 1.0, 0.0)
