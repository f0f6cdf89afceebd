import numpy as np
import pytest

from hypergconv import RangeLimitError, base_point
from hypergconv import dist
from hypergconv.hyperboloid import _point_unchecked
from hypergconv.sampling import ball_radius_sampler, make_rng, random_point_in_ball


class TestBallRadiusSampler:
    @pytest.mark.parametrize("d, radius", [(256, 5.0), (600, 2.0)])
    def test_overflow_raises(self, d, radius):
        # sinh(radius)^(d-1) overflows: the normalized law would be NaN
        with pytest.raises(RangeLimitError):
            random_point_in_ball(make_rng(0), base_point(d), radius)

    @pytest.mark.parametrize("d, radius", [(128, 1.67e-4), (256, 5.9e-5)])
    def test_underflow_is_scaled(self, d, radius):
        # sinh(radius)^(d-1) underflows to zero on the whole grid; the scaled
        # law is the same: (t / radius)^d is close to uniform on [0, 1]
        ts = ball_radius_sampler(d, radius)(make_rng(0), 4000)
        assert np.all((ts > 0.0) & (ts <= radius))
        assert abs(np.mean((ts / radius) ** d) - 0.5) < 0.02

    @pytest.mark.parametrize("d, radius", [(2, 0.5), (8, 1.2), (64, 1e-3),
                                           (128, 5e-3), (256, 0.5)])
    def test_representable_grid_keeps_its_draws(self, d, radius):
        ts = np.linspace(0.0, radius, 4096)
        dens = np.sinh(ts) ** (d - 1)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(ts))])
        u = make_rng(5).uniform(size=500)
        want = np.clip(np.interp(u, cdf / cdf[-1], ts), 0.0, radius)
        assert np.array_equal(ball_radius_sampler(d, radius)(make_rng(5), 500), want)


def old_canonical_draw(rng, d, radius):
    """The canonical-center branch of ``random_point_in_ball`` before it
    checked far points: the same Philox calls, no check."""
    t = float(ball_radius_sampler(d, radius)(rng, 1)[0])
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return _point_unchecked(np.concatenate([[np.cosh(t)], np.sinh(t) * u]))


class TestCanonicalCenterFarDraw:
    @pytest.mark.parametrize("d, radius", [(2, 3.0), (8, 10.0), (8, 16.9), (32, 16.9)])
    def test_near_draws_keep_their_bits(self, d, radius):
        for seed in range(20):
            new, old = make_rng(seed), make_rng(seed)
            p = random_point_in_ball(new, base_point(d), radius)
            q = old_canonical_draw(old, d, radius)
            assert p.coords.tobytes() == q.coords.tobytes()
            assert new.random() == old.random()  # same Philox calls

    def test_far_draws_raise_or_pass_dist(self):
        # at radius 19 in H^8 many canonical draws fail dist's <x,x> <= -0.5
        # test; each such draw raises instead
        x0, refused = base_point(8), 0
        for seed in range(200):
            new, old = make_rng(seed), make_rng(seed)
            q = old_canonical_draw(old, 8, 19.0)
            try:
                p = random_point_in_ball(new, x0, 19.0)
            except RangeLimitError:
                refused += 1
            else:
                assert p.coords.tobytes() == q.coords.tobytes()
                assert dist(p, p) == 0.0 and dist(p, x0) > 16.0
            assert new.random() == old.random()  # same Philox calls
        assert refused > 0
