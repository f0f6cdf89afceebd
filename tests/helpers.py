"""Bound checks that only the tests use: a smooth function's initial gap
against its radius, and Polyak's guarantee after T steps."""

from dataclasses import dataclass

from hypergconv import DomainError, HPoint, zeta
from hypergconv.oracles import FnOracle


@dataclass
class GapBoundReport:
    ok: bool
    gap: float
    bound: float


def gap_bound_check(f: FnOracle, xref: HPoint, r: float) -> GapBoundReport:
    """Check f(xref) - f* <= (1/2) L r^2 * 8/zeta(r) + 1e-6 for smooth g-convex f."""
    if f.fmin is None or f.smoothness is None:
        raise DomainError("gap bound check needs fmin and smoothness metadata")
    gap = f.value(xref) - f.fmin
    bound = 0.5 * f.smoothness * r * r * 8.0 / float(zeta(r))
    return GapBoundReport(gap <= bound + 1e-6, gap, bound)


def polyak_guarantee(s0: float, M: float, T: int) -> float:
    """Upper bound on min_k (f(x_k)-f*)^2 after T Polyak steps: 2 zeta(s0) s0^2 M^2 / T."""
    return 2.0 * zeta(s0) * s0 * s0 * M * M / T
