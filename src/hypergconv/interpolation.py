"""First-order interpolation by g-convex functions: checks, constructions,
and the curvature obstruction certificate.

The necessary inequalities F_j >= F_i + <g_i, log_{x_i}(x_j)> + mu/2 d^2 are
sufficient in Euclidean space but not here: an isoceles triangle with the
right apex gradient passes all of them while forcing an interpolant above
its own max, because hyperbolic altitudes are shorter than the Euclidean
ones with the same side data.  ``obstruction_certificate`` builds that
triangle and returns the conflicting bounds.  ``interp_checks`` measures and
judges the CLI's ``interp`` rows (README, "What each CLI row checks").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperboloid import (
    DomainError,
    GeometryViolation,
    HPoint,
    HTangent,
    base_point,
    dist,
    exp,
    frame_at_base,
    gspan,
    log,
    _log_at,
    _mink_x,
)
from .oracles import (
    Constant,
    DistToSub,
    FnOracle,
    OracleSample,
    PseudoAffine,
    ShiftedMax,
    SqDistToPoint,
    Sum,
    fn_dist_point,
    gconvex_holds,
    subgradient_slack,
)
from .sampling import random_point_in_ball, random_unit_tangent

__all__ = [
    "InterpData",
    "NecessaryReport",
    "NotApplicable",
    "check_necessary",
    "construct_sufficient",
    "obstruction_certificate",
    "minimal_function",
    "obstructs",
    "roundtrip_holds",
    "minimal_values_hold",
    "interp_checks",
]

SLACK_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9  # an interpolant reproduces each data value F_i to this
MINIMAL_TOL = 1e-8  # a minimal function reaches F + <g, log_y(x)> at x to this


@dataclass(frozen=True)
class InterpData:
    """First-order data (F_i, x_i, g_i) with a strong-convexity target mu."""

    items: list[OracleSample]
    mu: float = 0.0

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError("mu must be nonnegative")
        dims = {s.x.d for s in self.items}
        if len(dims) > 1:
            raise DomainError("interpolation data mixes dimensions")


@dataclass(frozen=True)
class NecessaryReport:
    ok: bool
    worst_pair: tuple[int, int] | None
    slack: float


@dataclass(frozen=True)
class NotApplicable:
    """Typed refusal: which precondition of the construction failed."""

    reason: str


def check_necessary(data: InterpData) -> NecessaryReport:
    """Evaluate all ordered pairs of the first-order inequalities.

    slack is the minimum of F_j - F_i - <g_i, log(x_j)> - mu/2 d^2; the data
    passes when it is >= -1e-9.  The first NaN slack fails the data and is
    reported with its pair.
    """
    worst = np.inf
    pair = None
    for i, si in enumerate(data.items):
        for j, sj in enumerate(data.items):
            if i == j:
                continue
            d = dist(si.x, sj.x)
            s = sj.F - si.F - _mink_x(si.g.vec, _log_at(si.x, sj.x, d).vec) \
                - 0.5 * data.mu * d * d
            if np.isnan(s):
                return NecessaryReport(False, (i, j), float(s))
            if s < worst:
                worst, pair = s, (i, j)
    if pair is None:
        worst = 0.0
    return NecessaryReport(bool(worst >= -SLACK_TOL), pair, float(worst))


def _part_oracle(sample: OracleSample, mu: float) -> FnOracle:
    parts = [(1.0, Constant(sample.F)),
             (1.0, PseudoAffine(sample.x, sample.g))]
    if mu > 0:
        parts.append((mu, SqDistToPoint(sample.x)))
    return Sum(parts, gconvex=(sample.g.norm <= mu / 2 + 1e-12))


def construct_sufficient(data: InterpData) -> FnOracle | NotApplicable:
    """Interpolant max_i { F_i + <g_i, log_{x_i}(.)> + mu/2 dist(x_i, .)^2 }.

    Valid whenever the necessary inequalities hold and every |g_i| <= mu/2;
    the result is then mu/2-strongly g-convex and matches all data exactly.
    """
    if not data.items:
        return NotApplicable("no data points")
    for i, s in enumerate(data.items):
        if s.g.norm > data.mu / 2.0 + 1e-12:
            return NotApplicable(f"gradient {i} has norm {s.g.norm} > mu/2")
    rep = check_necessary(data)
    if not rep.ok:
        return NotApplicable(
            f"necessary inequalities fail at pair {rep.worst_pair} (slack {rep.slack})")
    f = ShiftedMax([(_part_oracle(s, data.mu), 0.0) for s in data.items],
                   warn_on_ties=False)
    for i, s in enumerate(data.items):
        v = f.value(s.x)
        if not (abs(v - s.F) <= ROUNDTRIP_TOL * max(1.0, abs(s.F))):
            raise GeometryViolation(f"interpolant misses value {i}: {v} vs {s.F}")
    return f


def obstruction_certificate(theta: float, perpendicular_grads: bool = False
                            ) -> tuple[InterpData, float, float]:
    """Triangle data passing the necessary inequalities yet uninterpolable.

    Isoceles triangle in the hyperbolic plane with unit legs and apex angle
    2 theta; the apex carries value 1 and the down-altitude gradient of norm
    1/cos(theta), the base points carry value 0.  Any g-convex interpolant
    would need f(p) >= lower = 1 - h/cos(theta) at the altitude foot p but
    also f(p) <= upper = 0 by midpoint convexity; lower > upper for every
    theta since the altitude satisfies tanh(h) = cos(theta) tanh(1) < h.

    ``perpendicular_grads`` switches the base gradients from zero to the
    length-1/sin(alpha) vectors perpendicular to the base (the alternative
    choice that also passes the necessary conditions).
    """
    if not (0.0 < theta < np.pi / 2.0):
        raise DomainError("theta must lie strictly inside (0, pi/2)")
    x1 = base_point(2)
    e1, e2 = frame_at_base(2)
    x2 = exp(x1, HTangent(x1, np.cos(theta) * e1.vec + np.sin(theta) * e2.vec))
    x3 = exp(x1, HTangent(x1, np.cos(theta) * e1.vec - np.sin(theta) * e2.vec))
    h = float(np.arctanh(np.cos(theta) * np.tanh(1.0)))
    p = exp(x1, e1.scaled(h))
    g1 = log(x1, p).scaled(-1.0 / (np.cos(theta) * h))
    base_grads = [HTangent(x2, np.zeros(3)), HTangent(x3, np.zeros(3))]
    if perpendicular_grads:
        base_grads = []
        for xa, xb in ((x2, x3), (x3, x2)):
            t = log(xa, xb)
            t = t.scaled(1.0 / t.norm)
            toward = log(xa, x1)
            perp = toward.vec - _mink_x(toward.vec, t.vec) * t.vec
            pn = np.sqrt(max(_mink_x(perp, perp), 0.0))
            alpha = np.arcsin(min(pn / toward.norm, 1.0))
            base_grads.append(HTangent(xa, perp / (pn * np.sin(alpha))))
    items = [OracleSample(1.0, x1, g1), OracleSample(0.0, x2, base_grads[0]),
             OracleSample(0.0, x3, base_grads[1])]
    lower = 1.0 - h / np.cos(theta)
    upper = 0.0
    return InterpData(items, mu=0.0), lower, upper


def minimal_function(F: float, y: HPoint, g: HTangent, x: HPoint
                     ) -> tuple[FnOracle, float]:
    """Pointwise-minimal g-convex function with value F and subgradient g at y.

    Splits g into components along and across the geodesic through y and x,
    sums the matching distance terms (reflecting the far anchor when the
    aligned component points toward x), and achieves F + <g, log_y(x)> at x.
    """
    D = dist(x, y)
    if D == 0.0:
        raise DomainError("evaluation point must differ from the anchor")
    ly = _log_at(y, x, D)
    d2 = ly.norm ** 2
    align = _mink_x(g.vec, ly.vec)
    g_par = HTangent(y, (align / d2) * ly.vec)
    g_perp = HTangent(y, g.vec - g_par.vec)
    line = gspan([y, x], [])
    xprime = x if align <= 0 else exp(y, ly.scaled(-1.0))
    a_par = g_par.norm
    a_perp = g_perp.norm
    parts: list[tuple[float, FnOracle]] = [
        (1.0, Constant(F - a_par * (D if xprime is x else dist(xprime, y))))]
    if a_par > 0:
        parts.append((a_par, fn_dist_point(xprime)))
    if a_perp > 0:
        parts.append((a_perp, DistToSub(line, 0.0)))
    f = Sum(parts, gconvex=True)
    value = f.value(x)
    target = F + align
    if not (abs(value - target) <= MINIMAL_TOL * max(1.0, abs(target))):
        raise GeometryViolation(f"minimal construction off target: {value} vs {target}")
    return f, value


def obstructs(data: InterpData, lower: float, upper: float) -> bool:
    """The data pass the necessary inequalities and still force lower > upper."""
    return bool(check_necessary(data).ok and lower > upper)


def roundtrip_holds(max_err: float, min_slack: float) -> bool:
    """max |f(x_i) - F_i| <= ROUNDTRIP_TOL and the smallest slack is g-convex."""
    return bool(max_err <= ROUNDTRIP_TOL and gconvex_holds(min_slack))


def minimal_values_hold(worst: float) -> bool:
    """The largest miss of F + <g, log_y(x)> by a minimal function is <= MINIMAL_TOL."""
    return bool(worst <= MINIMAL_TOL)


def interp_checks(rng: np.random.Generator, thetas, triples: int):
    """Yield the ``interp`` rows (case, measured, bound, passed) in order
    (README, "What each CLI row checks"): the certificate at each theta, an
    interpolant of six samples in H^3, and ``triples`` minimal functions."""
    worst_margin, ok = np.inf, True
    for theta in thetas:
        data, lower, upper = obstruction_certificate(float(theta))
        ok &= obstructs(data, lower, upper)
        worst_margin = float(np.minimum(worst_margin, lower - upper))
    yield "obstruction-grid", worst_margin, 0.0, ok

    x0 = base_point(3)
    z = exp(x0, random_unit_tangent(rng, x0).scaled(0.7))
    ps = [random_point_in_ball(rng, z, 0.45) for _ in range(6)]
    items = [OracleSample(F, p, g) for p, (F, g) in zip(ps, map(SqDistToPoint(z).eval, ps))]
    f = construct_sufficient(InterpData(items, mu=1.0))
    max_err, slack = np.inf, -np.inf
    if not isinstance(f, NotApplicable):
        answers = [(s, *f.eval(s.x)) for s in items]  # value == eval()[0]: one per point
        max_err = float(np.max([abs(F - s.F) for s, F, _ in answers]))
        slack = float(np.min([subgradient_slack(F, g, f.value(y), log(s.x, y))
                              for s, F, g in answers
                              for y in [random_point_in_ball(rng, x0, 2.0) for _ in range(20)]]))
    yield "construct-roundtrip", max_err, ROUNDTRIP_TOL, roundtrip_holds(max_err, slack)

    worst = 0.0
    for _ in range(triples):
        y = random_point_in_ball(rng, x0, 1.0)
        g = random_unit_tangent(rng, y).scaled(2.0 * rng.uniform())
        x = random_point_in_ball(rng, x0, 1.5)
        D = dist(x, y)
        if D < 1e-8:
            continue
        fmin, val = minimal_function(rng.uniform(-1, 1), y, g, x)
        target = fmin.value(y) + _mink_x(g.vec, _log_at(y, x, D).vec)
        worst = float(np.maximum(worst, abs(val - target)))
    yield "minimal-values", worst, MINIMAL_TOL, minimal_values_hold(worst)
