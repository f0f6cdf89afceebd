"""Executable adversarial constructions for g-convex optimization on hyperbolic space."""

from .hyperboloid import (
    R_MAX,
    HPoint,
    HTangent,
    TotallyGeodesicSub,
    HalfSpace,
    GeometryError,
    DimensionMismatch,
    GeometryViolation,
    RangeLimitError,
    DomainError,
    mink_inner,
    dist,
    exp,
    log,
    ptransport,
    zeta,
    gspan,
    sub_exp,
    sub_dist,
    sub_dist_value,
    halfspace_dist,
    right_triangle,
    base_point,
    frame_at_base,
)
from .sampling import make_rng

__version__ = "0.1.0"
