"""Seeded random geometry helpers.

All randomness in the package flows through Philox (a counter-based generator
with a platform-independent stream), so transcripts reproduce bit-for-bit
across machines for a given seed.  The generator identity is part of the
external contract.
"""

from __future__ import annotations

import functools

import numpy as np

from .hyperboloid import HPoint, HTangent, RangeLimitError, exp, _mink, _point_far_checked

__all__ = [
    "make_rng",
    "random_unit_tangent",
    "random_point_in_ball",
    "ball_radius_sampler",
]


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for the given seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def random_unit_tangent(rng: np.random.Generator, x: HPoint) -> HTangent:
    """Uniform unit tangent vector at x (rotation-invariant)."""
    while True:
        g = rng.standard_normal(x.coords.size)
        g = g + _mink(g, x.coords) * x.coords
        n = np.sqrt(max(_mink(g, g), 0.0))
        if n > 1e-12:
            return HTangent(x, g / n)


@functools.lru_cache(maxsize=64)
def ball_radius_sampler(d: int, radius: float):
    """Sampler for the radial law of the uniform distribution on a ball.

    The hyperbolic volume element gives radial density proportional to
    sinh^{d-1}(t); inversion interpolates a dense cumulative-trapezoid grid,
    which is deterministic and accurate enough for sampling purposes.  Where
    the whole grid underflows, sinh is scaled by the power of two 2^-k that
    brings sinh(radius) into [1/2, 1), which scales the density by the exact
    2^(-k(d-1)).  Raises ``RangeLimitError`` when sinh^{d-1} overflows, or
    still underflows after that scaling.
    """
    ts = np.linspace(0.0, radius, 4096)
    cdf = _radial_cdf(ts, d, 1.0)
    if cdf[-1] == 0.0:
        cdf = _radial_cdf(ts, d, np.ldexp(1.0, -int(np.frexp(np.sinh(radius))[1])))
    if not (np.isfinite(cdf[-1]) and cdf[-1] > 0.0):
        raise RangeLimitError(
            f"radial law of B(., {radius}) in dimension {d} is not representable "
            "in double precision")
    cdf /= cdf[-1]

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.uniform(size=n)
        return np.clip(np.interp(u, cdf, ts), 0.0, radius)

    return sample


def _radial_cdf(ts: np.ndarray, d: int, scale: float) -> np.ndarray:
    """Unnormalized cumulative trapezoid sums of (scale sinh(t))^{d-1} on ts."""
    with np.errstate(over="ignore"):  # an overflow raises in the caller
        dens = (scale * np.sinh(ts)) ** (d - 1)
        return np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(ts))])


def random_point_in_ball(rng: np.random.Generator, center: HPoint, radius: float) -> HPoint:
    """Uniform (volume-measure) random point in B(center, radius)."""
    t = float(ball_radius_sampler(center.d, radius)(rng, 1)[0])
    if t == 0.0:
        return center
    c = center.coords
    if c[0] == 1.0 and not np.any(c[1:]):
        # canonical center: build the coordinates directly
        u = rng.standard_normal(center.d)
        u /= np.linalg.norm(u)
        return _point_far_checked(np.concatenate([[np.cosh(t)], np.sinh(t) * u]))
    return exp(center, random_unit_tangent(rng, center).scaled(t))
