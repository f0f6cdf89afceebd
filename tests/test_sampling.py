import pytest

from hypergconv import RangeLimitError, base_point
from hypergconv.sampling import ball_radius_sampler, make_rng, random_point_in_ball


class TestBallRadiusSampler:
    @pytest.mark.parametrize("d, radius", [(256, 5.0), (600, 2.0)])
    def test_overflow_raises(self, d, radius):
        # sinh(radius)^(d-1) overflows: the normalized law would be NaN
        with pytest.raises(RangeLimitError):
            random_point_in_ball(make_rng(0), base_point(d), radius)

    def test_underflow_raises(self):
        with pytest.raises(RangeLimitError):
            ball_radius_sampler(128, 1.7e-4)
