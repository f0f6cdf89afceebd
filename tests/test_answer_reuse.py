"""The zoo and interp check loops compute each sampled answer once.

``oracles.zoo_checks`` runs one ``eval`` at a, one ``value`` at b and one
``log(a, b)`` per sample pair, and ``interpolation.interp_checks`` one
interpolant ``eval`` per data point.  Their rows keep the bits of the loops
that recomputed those answers, copied below as they read before.
"""

import numpy as np
import pytest

from hypergconv import interpolation, oracles
from hypergconv.hyperboloid import (
    DomainError,
    GeometryViolation,
    HalfSpace,
    HTangent,
    _mink,
    _mink_x,
    base_point,
    dist,
    exp,
    gspan,
    log,
    zeta,
)
from hypergconv.interpolation import (
    MINIMAL_TOL,
    ROUNDTRIP_TOL,
    InterpData,
    NotApplicable,
    construct_sufficient,
    minimal_values_hold,
    obstruction_certificate,
    obstructs,
    roundtrip_holds,
)
from hypergconv.oracles import (
    GCONVEX_SLACK,
    SANDWICH_ALLOWANCE,
    DistToSub,
    MoreauParams,
    OracleSample,
    ShiftedMax,
    SqDistToPoint,
    fn_constant,
    fn_dist_point,
    fn_dist_sub,
    fn_moreau,
    fn_shifted_max,
    fn_sqdist_point,
    fn_sum,
    gconvex_holds,
    lipschitz_holds,
    sandwich_violation,
    scalar_bounds_hold,
    taper,
)
from hypergconv.sampling import make_rng, random_point_in_ball, random_unit_tangent


# -- the loops as they read when they recomputed their answers ---------------

def _subgradient_gap(f, x, y):
    Fx, g = f.eval(x)
    Fy = f.value(y)
    return Fy - Fx - float(_mink(g.vec, log(x, y).vec))


def _midpoint_convexity_gap(f, x, y):
    mid = exp(x, log(x, y).scaled(0.5))
    return 0.5 * (f.value(x) + f.value(y)) - f.value(mid)


def _zoo_checks(rng, d, n):
    x0 = base_point(d)
    z = random_point_in_ball(rng, x0, 1.2)
    S = HalfSpace(z, random_unit_tangent(rng, z)).boundary
    zoo = {"dist-point": fn_dist_point(z), "sqdist-point": fn_sqdist_point(z),
           "dist-sub": fn_dist_sub(S, 0.3),
           "max": fn_shifted_max([(fn_dist_point(z), 0.1), (fn_dist_sub(S, 0.0), 0.2)])}
    for name, o in zoo.items():
        worst, lip_ok = np.inf, True
        for _ in range(n):
            a = random_point_in_ball(rng, x0, 2.0)
            b = random_point_in_ball(rng, x0, 2.0)
            worst = float(np.min([worst, _subgradient_gap(o, a, b),
                                  _midpoint_convexity_gap(o, a, b)]))
            if o.lipschitz is not None:
                lip_ok &= lipschitz_holds(o.grad(a).norm, o.lipschitz)
        yield f"gconvex-{name}", worst, GCONVEX_SLACK, gconvex_holds(worst) and lip_ok

    lam = 0.25
    env = fn_moreau(fn_dist_point(z), MoreauParams(lam))
    worst = 0.0
    for _ in range(n):
        p = random_point_in_ball(rng, x0, 2.0)
        worst = float(np.max([worst, sandwich_violation(dist(p, z), env.bracket(p), lam)]))
    yield "moreau-sandwich", worst, SANDWICH_ALLOWANCE, worst <= SANDWICH_ALLOWANCE

    t = np.linspace(0.0, 30.0, 301)
    zb = float(np.max(zeta(t) - (1.0 + t)))
    growth, bend = [], []
    for R in (1.0, 10.0):
        D = np.geomspace(0.51, 1e6, 400) * R * R
        u, du, d2u = taper(D, R)
        growth.append(u + D * du)
        bend.append(2 * du + D * d2u)
    yield "scalar-bounds", zb, 0.0, scalar_bounds_hold(zb, np.min(growth), np.max(bend))


def _minimal_function(F, y, g, x):
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
    parts = [(1.0, fn_constant(F - a_par * dist(xprime, y)))]
    if a_par > 0:
        parts.append((a_par, fn_dist_point(xprime)))
    if a_perp > 0:
        parts.append((a_perp, fn_dist_sub(line, 0.0)))
    f = fn_sum(parts, gconvex=True)
    value = f.value(x)
    target = F + align
    if not (abs(value - target) <= MINIMAL_TOL * max(1.0, abs(target))):
        raise GeometryViolation(f"minimal construction off target: {value} vs {target}")
    return f, value


def _interp_checks(rng, thetas, triples):
    worst_margin, ok = np.inf, True
    for theta in thetas:
        data, lower, upper = obstruction_certificate(float(theta))
        ok &= obstructs(data, lower, upper)
        worst_margin = float(np.minimum(worst_margin, lower - upper))
    yield "obstruction-grid", worst_margin, 0.0, ok

    x0 = base_point(3)
    z = exp(x0, random_unit_tangent(rng, x0).scaled(0.7))
    ps = [random_point_in_ball(rng, z, 0.45) for _ in range(6)]
    items = [OracleSample(F, p, g) for p, (F, g) in zip(ps, map(fn_sqdist_point(z).eval, ps))]
    f = construct_sufficient(InterpData(items, mu=1.0))
    max_err, slack = np.inf, -np.inf
    if not isinstance(f, NotApplicable):
        max_err = float(np.max([abs(f.value(s.x) - s.F) for s in items]))
        slack = float(np.min([_subgradient_gap(f, s.x, random_point_in_ball(rng, x0, 2.0))
                              for s in items for _ in range(20)]))
    yield "construct-roundtrip", max_err, ROUNDTRIP_TOL, roundtrip_holds(max_err, slack)

    worst = 0.0
    for _ in range(triples):
        y = random_point_in_ball(rng, x0, 1.0)
        g = random_unit_tangent(rng, y).scaled(2.0 * rng.uniform())
        x = random_point_in_ball(rng, x0, 1.5)
        if dist(x, y) < 1e-8:
            continue
        fmin, val = _minimal_function(rng.uniform(-1, 1), y, g, x)
        target = fmin.value(y) + _mink_x(g.vec, log(y, x).vec)
        worst = float(np.maximum(worst, abs(val - target)))
    yield "minimal-values", worst, MINIMAL_TOL, minimal_values_hold(worst)


def _hex_rows(checks):
    return [(case, float(measured).hex(), float(bound).hex(), bool(passed))
            for case, measured, bound, passed in checks]


# -- the rows keep their bits ------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [3, 8])
def test_zoo_rows_match_recomputing_loop(d, seed):
    assert (_hex_rows(oracles.zoo_checks(make_rng(seed), d, 25))
            == _hex_rows(_zoo_checks(make_rng(seed), d, 25)))


@pytest.mark.parametrize("seed", range(4))
def test_interp_rows_match_recomputing_loop(seed):
    thetas = np.linspace(0.1, 1.4, 5)
    assert (_hex_rows(interpolation.interp_checks(make_rng(seed), thetas, 40))
            == _hex_rows(_interp_checks(make_rng(seed), thetas, 40)))


# -- each answer is computed once --------------------------------------------

def _spy(monkeypatch, owner, name, calls):
    """Record (arguments, result) of every call of ``owner.name`` in ``calls``."""
    fn = getattr(owner, name)

    def spy(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, spy)


def test_zoo_pair_runs_each_answer_once(monkeypatch):
    draws, logs, evals, values = [], [], [], []
    _spy(monkeypatch, oracles, "random_point_in_ball", draws)
    _spy(monkeypatch, oracles, "log", logs)
    for cls in (DistToSub, SqDistToPoint, ShiftedMax):
        _spy(monkeypatch, cls, "eval", evals)
        _spy(monkeypatch, cls, "value", values)
    list(oracles.zoo_checks(make_rng(0), 3, 1))
    # draws: z, one pair (a, b) per gconvex suite, then the sandwich point
    points = [out for _, out in draws]
    assert len(points) == 10

    def at(calls, p):
        return sorted(type(args[0]).__name__ for args, _ in calls if args[1] is p)

    # (evals at a, values at a, values at b); the max's own eval values every
    # part and evaluates the achieving one
    once = {"dist-point": (["DistToSub"], [], ["DistToSub"]),
            "sqdist-point": (["SqDistToPoint"], [], ["SqDistToPoint"]),
            "dist-sub": (["DistToSub"], [], ["DistToSub"]),
            "max": (["DistToSub", "ShiftedMax"], ["DistToSub"] * 2,
                    ["DistToSub", "DistToSub", "ShiftedMax"])}
    for k, (suite, expected) in enumerate(once.items()):
        a, b = points[1 + 2 * k], points[2 + 2 * k]
        assert sum(x is a and y is b for (x, y), _ in logs) == 1, suite
        assert (at(evals, a), at(values, a), at(values, b)) == expected, suite


def test_interp_evaluates_the_interpolant_once_per_point(monkeypatch):
    evals, values = [], []
    _spy(monkeypatch, ShiftedMax, "eval", evals)
    _spy(monkeypatch, ShiftedMax, "value", values)
    rows = list(interpolation.interp_checks(make_rng(0), [], 0))
    assert rows[1][0] == "construct-roundtrip" and rows[1][3]
    # six data points: one eval each serves the value check and 20 gaps;
    # construct_sufficient's own check reads six values, the gaps 120 more
    assert len(evals) == 6
    assert len(values) == 6 + 120
