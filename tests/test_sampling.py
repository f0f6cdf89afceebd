import numpy as np
import pytest

from hypergconv import RangeLimitError, base_point
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
