"""First-order interpolation by g-convex functions: checks, constructions,
and the curvature obstruction certificate.

The necessary inequalities F_j >= F_i + <g_i, log_{x_i}(x_j)> + mu/2 d^2 are
sufficient in Euclidean space but not here: an isoceles triangle with the
right apex gradient passes all of them while forcing an interpolant above
its own max, because hyperbolic altitudes are shorter than the Euclidean
ones with the same side data.  ``obstruction_certificate`` builds that
triangle and returns the conflicting bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hyperboloid import (
    DomainError,
    HPoint,
    HTangent,
    base_point,
    dist,
    exp,
    frame_at_base,
    gspan,
    log,
    _mink_x,
)
from .oracles import (
    FnOracle,
    OracleSample,
    ShiftedMax,
    fn_constant,
    fn_dist_sub,
    fn_dist_point,
    fn_pseudo_affine,
    fn_sqdist_point,
    fn_sum,
)

__all__ = [
    "InterpData",
    "NecessaryReport",
    "NotApplicable",
    "check_necessary",
    "construct_sufficient",
    "obstruction_certificate",
    "minimal_function",
    "data_to_json",
    "data_from_json",
]

SLACK_TOL = 1e-9


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

    def __len__(self):
        return len(self.items)


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
    passes when it is >= -1e-9.
    """
    worst = np.inf
    pair = None
    for i, si in enumerate(data.items):
        for j, sj in enumerate(data.items):
            if i == j:
                continue
            d = dist(si.x, sj.x)
            s = sj.F - si.F - _mink_x(si.g.vec, log(si.x, sj.x).vec) \
                - 0.5 * data.mu * d * d
            if s < worst:
                worst, pair = s, (i, j)
    if pair is None:
        worst = 0.0
    return NecessaryReport(bool(worst >= -SLACK_TOL), pair, float(worst))


def _part_oracle(sample: OracleSample, mu: float) -> FnOracle:
    parts = [(1.0, fn_constant(sample.F)),
             (1.0, fn_pseudo_affine(sample.x, sample.g))]
    if mu > 0:
        parts.append((mu, fn_sqdist_point(sample.x)))
    return fn_sum(parts, gconvex=(sample.g.norm <= mu / 2 + 1e-12))


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
        if abs(v - s.F) > 1e-9 * max(1.0, abs(s.F)):
            raise AssertionError(f"interpolant misses value {i}: {v} vs {s.F}")
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
    if perpendicular_grads:
        g2, g3 = [], []
        for xa, xb in ((x2, x3), (x3, x2)):
            t = log(xa, xb)
            t = t.scaled(1.0 / t.norm)
            toward = log(xa, x1)
            perp = toward.vec - _mink_x(toward.vec, t.vec) * t.vec
            pn = np.sqrt(max(_mink_x(perp, perp), 0.0))
            alpha = np.arcsin(min(pn / toward.norm, 1.0))
            (g2 if xa is x2 else g3).append(
                HTangent(xa, perp / (pn * np.sin(alpha))))
        items = [OracleSample(1.0, x1, g1),
                 OracleSample(0.0, x2, g2[0]),
                 OracleSample(0.0, x3, g3[0])]
    else:
        items = [OracleSample(1.0, x1, g1),
                 OracleSample(0.0, x2, HTangent(x2, np.zeros(3))),
                 OracleSample(0.0, x3, HTangent(x3, np.zeros(3)))]
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
    if dist(x, y) == 0.0:
        raise DomainError("evaluation point must differ from the anchor")
    ly = log(y, x)
    d2 = ly.norm ** 2
    align = _mink_x(g.vec, ly.vec)
    g_par = HTangent(y, (align / d2) * ly.vec)
    g_perp = HTangent(y, g.vec - g_par.vec)
    line = gspan([y, x], [])
    xprime = x if align <= 0 else exp(y, ly.scaled(-1.0))
    a_par = g_par.norm
    a_perp = g_perp.norm
    parts: list[tuple[float, FnOracle]] = [
        (1.0, fn_constant(F - a_par * dist(xprime, y)))]
    if a_par > 0:
        parts.append((a_par, fn_dist_point(xprime)))
    if a_perp > 0:
        parts.append((a_perp, fn_dist_sub(line, 0.0)))
    f = fn_sum(parts, gconvex=True)
    value = f.value(x)
    target = F + align
    if abs(value - target) > 1e-8 * max(1.0, abs(target)):
        raise AssertionError(f"minimal construction off target: {value} vs {target}")
    return f, value


def data_to_json(data: InterpData) -> str:
    doc = {
        "d": data.items[0].x.d if data.items else 0,
        "mu": data.mu,
        "items": [{"F": s.F, "x": s.x.coords.tolist(), "g": s.g.vec.tolist()}
                  for s in data.items],
    }
    return json.dumps(doc, indent=1)


def data_from_json(text: str) -> InterpData:
    doc = json.loads(text)
    items = []
    for rec in doc["items"]:
        x = HPoint(np.asarray(rec["x"], dtype=float))
        items.append(OracleSample(float(rec["F"]), x,
                                  HTangent(x, np.asarray(rec["g"], dtype=float))))
    return InterpData(items, mu=float(doc.get("mu", 0.0)))
