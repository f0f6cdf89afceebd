import pytest

from hypergconv import base_point
from hypergconv.sampling import make_rng, random_point_in_ball, random_unit_tangent


@pytest.fixture
def rng():
    return make_rng(20240817)


def rand_point(rng, d, radius=2.0):
    return random_point_in_ball(rng, base_point(d), radius)


def rand_unit(rng, x):
    return random_unit_tangent(rng, x)


def rand_tangent(rng, x, scale=1.0):
    return random_unit_tangent(rng, x).scaled(scale * rng.uniform())
