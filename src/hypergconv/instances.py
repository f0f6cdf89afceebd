"""Seeded benchmark instances with exactly known minimizers.

Used by the Polyak guarantee checks and the validation harness: a max of
shifted point-distances whose parts all vanish at a designated center, with
antipodal direction pairs so the zero vector lies in the subdifferential
there, making the center an exact global minimizer with value 0.
"""

from __future__ import annotations

import numpy as np

from .hyperboloid import HPoint, exp
from .oracles import FnOracle, fn_dist_point, fn_shifted_max
from .sampling import random_unit_tangent

__all__ = ["max_of_distances_instance"]


def max_of_distances_instance(rng: np.random.Generator, center: HPoint,
                              n_pairs: int = 3, radius: tuple[float, float] = (0.5, 3.0)
                              ) -> tuple[FnOracle, HPoint, float]:
    """1-Lipschitz g-convex max-of-distances with known minimizer.

    Returns (oracle, minimizer, fmin) with fmin = 0 at ``center``.
    """
    parts = []
    for _ in range(n_pairs):
        u = random_unit_tangent(rng, center)
        for sign in (+1.0, -1.0):
            rho = rng.uniform(*radius)
            z = exp(center, u.scaled(sign * rho))
            parts.append((fn_dist_point(z), rho))
    return fn_shifted_max(parts), center, 0.0
