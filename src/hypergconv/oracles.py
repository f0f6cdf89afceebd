"""First-order oracles for the g-convex function families used by the adversaries.

Every oracle returns ``(value, subgradient)`` pairs; subgradients satisfy
``f(y) >= f(x) + <g, log_x(y)>`` whenever the oracle is flagged g-convex.
Oracles state their metadata when built (see README, "Oracle metadata") and
are immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hyperboloid import (
    R_MAX,
    DomainError,
    HalfSpace,
    HPoint,
    HTangent,
    TotallyGeodesicSub,
    _dist_coords,
    _mink,
    _mink_x,
    _mink_x_rows,
    base_point,
    dist,
    exp,
    gspan,
    log,
    ptransport,
    sub_dist,
    sub_dist_value,
    zeta,
)
from .sampling import random_point_in_ball, random_unit_tangent

__all__ = [
    "FnOracle",
    "OracleSample",
    "MoreauParams",
    "fn_constant",
    "fn_dist_point",
    "fn_sqdist_point",
    "fn_dist_sub",
    "fn_shifted_max",
    "fn_moreau",
    "fn_pseudo_affine",
    "taper",
    "subgradient_gap",
    "midpoint_convexity_gap",
    "sandwich_violation",
    "worst_chord_slope",
    "gconvex_holds",
    "lipschitz_holds",
    "scalar_bounds_hold",
    "zoo_checks",
]

logger = logging.getLogger(__name__)

# Two parts of a max within this of each other count as a tie.
TIE_TOL = 1e-12


def _optimize():
    """``scipy.optimize``, imported on its first use (README, "Import cost").

    The import binds the module global ``optimize``; rebinding that global
    redirects every prox solve.
    """
    global optimize
    if "optimize" not in globals():
        from scipy import optimize
    return optimize


def __getattr__(name):
    if name == "optimize":
        return _optimize()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# A Moreau value query answers from its closed-form bracket (lo, hi) when
# hi - lo is at most this (see README, "The Moreau prox").
BRACKET_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OracleSample:
    """One oracle answer: value F and subgradient g at the query point x."""

    F: float
    x: HPoint
    g: HTangent

    def __post_init__(self):
        if self.g.base is not self.x and not np.allclose(
                self.g.base.coords, self.x.coords, atol=1e-12, rtol=0.0):
            raise DomainError("sample subgradient is not based at the query point")


@dataclass(frozen=True)
class MoreauParams:
    """Smoothing width lam of the Moreau envelope, in (0, R_MAX]."""

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= R_MAX):
            raise DomainError(f"lambda must lie in (0, {R_MAX}]")


class FnOracle:
    """First-order oracle interface with optional metadata.

    Attributes left ``None`` are unknown, not asserted to be absent.
    """

    gconvex: bool = True
    lipschitz: float | None = None
    smoothness: float | None = None
    fmin: float | None = None

    def eval(self, x: HPoint) -> tuple[float, HTangent]:
        raise NotImplementedError

    def value(self, x: HPoint) -> float:
        return self.eval(x)[0]

    def grad(self, x: HPoint) -> HTangent:
        return self.eval(x)[1]

    # -- optional structure hooks used by the Moreau envelope -------------
    def prox_pair(self, x: HPoint, lam: float) -> tuple[HPoint, float] | None:
        """Exact prox (argmin point, envelope value) if a closed form is known."""
        return None

    def max_sub_pieces(self) -> list[tuple[TotallyGeodesicSub, float]] | None:
        """Decomposition f = max_l { dist(., S_l) - c_l } if the oracle has one."""
        return None


class _Constant(FnOracle):
    def __init__(self, c: float):
        self.c = float(c)
        self.lipschitz = 0.0
        self.smoothness = 0.0
        self.fmin = self.c

    def eval(self, x):
        return self.c, HTangent(x, np.zeros_like(x.coords))

    def value(self, x):
        return self.c


def fn_constant(c: float) -> FnOracle:
    """The constant function (0 is a subgradient everywhere)."""
    return _Constant(c)


class DistToSub(FnOracle):
    """f(x) = dist(x, S) - shift for a totally geodesic S; 1-Lipschitz, g-convex.

    On S the zero vector is returned (a valid minimal-norm subgradient);
    off S the gradient is the unit vector pointing away from the foot.
    """

    lipschitz = 1.0

    def __init__(self, S: TotallyGeodesicSub, shift: float = 0.0):
        self.S = S
        self.shift = float(shift)
        self.fmin = -self.shift  # the distance vanishes on S

    def eval(self, x):
        d, foot = sub_dist(x, self.S)
        if d <= 1e-14:
            return -self.shift, HTangent(x, np.zeros_like(x.coords))
        g = log(x, foot).scaled(-1.0 / d)
        return d - self.shift, g

    def value(self, x):
        d = sub_dist_value(x, self.S)
        return -self.shift if d <= 1e-14 else d - self.shift

    def prox_pair(self, x, lam):
        # prox reduces to one dimension along the perpendicular geodesic
        d, foot = sub_dist(x, self.S)
        t = min(lam, d)
        if d <= 1e-14 or t == 0.0:
            return x, -self.shift
        y = exp(x, log(x, foot).scaled(t / d))
        if d >= lam:
            return y, (d - lam / 2.0) - self.shift
        return y, d * d / (2.0 * lam) - self.shift

    def max_sub_pieces(self):
        return [(self.S, self.shift)]


def fn_dist_sub(S: TotallyGeodesicSub, shift: float = 0.0) -> DistToSub:
    """Distance to a totally geodesic submanifold, minus a constant."""
    return DistToSub(S, shift)


def fn_dist_point(z: HPoint) -> DistToSub:
    """Distance to a point (a 0-dimensional totally geodesic submanifold)."""
    return DistToSub(gspan([z], []), 0.0)


class SqDistToPoint(FnOracle):
    """f(x) = dist(x, z)^2 / 2; gradient -log_x(z); 1-strongly g-convex."""

    fmin = 0.0

    def __init__(self, z: HPoint):
        self.z = z

    def eval(self, x):
        d = dist(x, self.z)
        return 0.5 * d * d, log(x, self.z).scaled(-1.0)

    def value(self, x):
        d = dist(x, self.z)
        return 0.5 * d * d


def fn_sqdist_point(z: HPoint) -> SqDistToPoint:
    return SqDistToPoint(z)


@dataclass(frozen=True)
class MaxInfo:
    value: float
    grad: HTangent
    argmax: int
    ties: tuple[int, ...]


class ShiftedMax(FnOracle):
    """f(x) = max_i { f_i(x) - offset_i }; subgradient from the achieving part.

    Exact ties break to the lowest index; near-ties (within TIE_TOL) are
    reported and logged, since in the adversarial constructions they signal a
    violated separation margin.  The parts' values come first, from their
    ``value``; only the achieving part forms its subgradient, so every part
    must have ``value(x) == eval(x)[0]`` (see README, "Evaluating a max").
    """

    def __init__(self, parts: list[tuple[FnOracle, float]], warn_on_ties: bool = True):
        if not parts:
            raise DomainError("max oracle needs at least one part")
        self.parts = [(o, float(c)) for o, c in parts]
        self.warn_on_ties = warn_on_ties
        self.gconvex = all(o.gconvex for o, _ in self.parts)
        lips = [o.lipschitz for o, _ in self.parts]
        self.lipschitz = max(lips) if all(l is not None for l in lips) else None

    def _part_values(self, x) -> np.ndarray:
        """The shifted part values f_i(x) - offset_i."""
        return np.array([o.value(x) - c for o, c in self.parts])

    def eval_detailed(self, x) -> MaxInfo:
        vals = self._part_values(x)
        best = int(np.argmax(vals))
        near = np.flatnonzero(vals >= vals[best] - TIE_TOL).tolist()
        ties = tuple(i for i in near if i != best)
        if ties and self.warn_on_ties:
            logger.warning("max oracle tie at value %.17g between parts %s",
                           vals[best], (best,) + ties)
        _, g = self.parts[best][0].eval(x)
        return MaxInfo(float(vals[best]), g, best, ties)

    def eval(self, x):
        info = self.eval_detailed(x)
        return info.value, info.grad

    def value(self, x):
        # no tie report: a tie matters only for the choice of subgradient
        vals = self._part_values(x)
        return float(vals[np.argmax(vals)])

    def max_sub_pieces(self):
        pieces = []
        for o, c in self.parts:
            sub = o.max_sub_pieces()
            if sub is None:
                return None
            pieces.extend((S, shift + c) for S, shift in sub)
        return pieces


def fn_shifted_max(parts: list[tuple[FnOracle, float]]) -> ShiftedMax:
    """Pointwise maximum of parts, each lowered by its offset."""
    return ShiftedMax(parts)


class _Sum(FnOracle):
    """Weighted sum of oracles sharing a base point convention."""

    def __init__(self, parts: list[tuple[float, FnOracle]], gconvex: bool = True):
        self.parts = parts
        self.gconvex = gconvex
        lips = [abs(w) * o.lipschitz for w, o in parts if o.lipschitz is not None]
        self.lipschitz = sum(lips) if len(lips) == len(parts) else None

    def eval(self, x):
        total = 0.0
        vec = np.zeros_like(x.coords)
        for w, o in self.parts:
            F, g = o.eval(x)
            total += w * F
            vec = vec + w * g.vec
        return total, HTangent(x, vec)

    def value(self, x):
        total = 0.0
        for w, o in self.parts:
            total += w * o.value(x)
        return total


def fn_sum(parts: list[tuple[float, FnOracle]], gconvex: bool = True) -> FnOracle:
    return _Sum(parts, gconvex=gconvex)


class PseudoAffine(FnOracle):
    """f(x) = <g, log_y(x)>: Lipschitz and smooth with constant |g|, NOT g-convex.

    The gradient is the adjoint inverse differential of exp applied to g:
    transport g along the geodesic, keep the radial component, and scale the
    orthogonal component by dist/sinh(dist).
    """

    gconvex = False

    def __init__(self, y: HPoint, g: HTangent):
        if g.base is not y and not np.allclose(g.base.coords, y.coords,
                                               atol=1e-12, rtol=0.0):
            raise DomainError("anchor gradient must be based at the anchor point")
        self.y = y
        self.g = g
        self.lipschitz = g.norm
        self.smoothness = g.norm

    def eval(self, x):
        D = dist(self.y, x)
        if D == 0.0:
            return 0.0, HTangent(x, self.g.vec.copy())
        s = log(self.y, x)
        val = float(_mink(self.g.vec, s.vec))
        pg = ptransport(self.y, x, self.g)
        radial = log(x, self.y).scaled(-1.0 / D)  # transported direction of s
        coef = float(_mink(pg.vec, radial.vec))
        par = coef * radial.vec
        perp = pg.vec - par
        grad = HTangent(x, par + (D / np.sinh(D)) * perp)
        return val, grad

    def value(self, x):
        if dist(self.y, x) == 0.0:
            return 0.0
        return float(_mink(self.g.vec, log(self.y, x).vec))


def fn_pseudo_affine(y: HPoint, g: HTangent) -> PseudoAffine:
    return PseudoAffine(y, g)


# ---------------------------------------------------------------------------
# Moreau envelope
# ---------------------------------------------------------------------------


class MoreauEnvelope(FnOracle):
    """f_lam(x) = min_{y in B(x, lam)} { f(y) + dist(x,y)^2 / (2 lam) }.

    Requires f g-convex and 1-Lipschitz; the envelope is then g-convex,
    1-Lipschitz and 1/tanh(lam)-smooth with gradient -(1/lam) log_x(y*).
    Shares its minimum value with f.  f is either one distance with an exact
    prox (``prox_pair``) or a max of shifted hyperplane distances
    (``max_sub_pieces``); see README, "The Moreau prox".
    """

    def __init__(self, f: FnOracle, params: MoreauParams):
        if not f.gconvex:
            raise DomainError("Moreau envelope requires a g-convex oracle")
        if f.lipschitz is None or f.lipschitz > 1.0 + 1e-12:
            raise DomainError("Moreau envelope requires lipschitz <= 1 metadata")
        self.f = f
        self.lam = params.lam
        self.lipschitz = min(1.0, f.lipschitz)
        self.smoothness = 1.0 / np.tanh(params.lam)
        self.fmin = f.fmin
        # an exact prox needs no stack; anything else (a one-part max too) is
        # solved over its pieces
        self._pieces = None
        if type(f).prox_pair is FnOracle.prox_pair:
            pieces = f.max_sub_pieces()
            if pieces is None:
                raise DomainError("Moreau envelope requires a max of shifted distances")
            self._pieces = _StackedPieces(pieces)

    def prox_point(self, x: HPoint) -> HPoint:
        return self._prox(x)[0]

    def eval(self, x):
        y, val = self._prox(x)
        return val, log(x, y).scaled(-1.0 / self.lam)

    def value(self, x):
        # hi of a tight bracket, else a candidate-based upper bound that skips
        # the gradient-grade polish
        lo, hi = self.bracket(x)
        if hi - lo <= BRACKET_TOL:
            return hi
        return _prox_max_pieces(x, self.lam, self._pieces, polish=False)[1]

    def bracket(self, x: HPoint) -> tuple[float, float]:
        """(lo, hi) with lo <= f_lam(x) <= hi, from closed forms only.

        An exact prox gives (v, v); a stack of hyperplane pieces (every game)
        gives ``_StackedPieces.bracket``, whose lo is certified (f >= f_l
        gives f_lam >= (f_l)_lam) and whose hi is attained.  See README,
        "The sandwich from the bracket".
        """
        if self._pieces is None:
            v = self.f.prox_pair(x, self.lam)[1]
            return v, v
        return self._pieces.bracket(x.coords, self.lam)

    def _prox(self, x: HPoint) -> tuple[HPoint, float]:
        if self._pieces is None:
            return self.f.prox_pair(x, self.lam)
        return _prox_max_pieces(x, self.lam, self._pieces)


def fn_moreau(f: FnOracle, p: MoreauParams) -> MoreauEnvelope:
    """Moreau smoothing of one distance or a max of shifted hyperplane distances."""
    return MoreauEnvelope(f, p)


def _tangent_frame(x: HPoint) -> np.ndarray:
    """Orthonormal tangent rows at x (d rows of length d+1).

    Closed form: the coordinate frame at the reference point transported to
    x, u_i = e_i + x_i/(1+x_0) (e_0 + x), which is exactly orthonormal.
    """
    xc = x.coords
    D = xc.size
    shift = xc.copy()
    shift[0] += 1.0
    out = np.eye(D)[1:, :] + np.outer(xc[1:] / (1.0 + xc[0]), shift)
    return out


class _StackedPieces:
    """f = max_l { dist(., S_l) - c_l } over hyperplanes S_l, their unit normals stacked.

    ``N @ y`` gives the Minkowski products q of y with the normals (rows times
    J = diag(-1, 1, ..., 1)), so dist(y, S_l) = arcsinh |q_l|.  A piece with
    several normals (a point, a sub of codimension > 1) raises DomainError.
    """

    def __init__(self, pieces: list[tuple[TotallyGeodesicSub, float]]):
        if any(len(S.normals) != 1 for S, _ in pieces):
            raise DomainError("Moreau envelope of a max needs hyperplane pieces")
        self.pieces = pieces
        self.normals = np.vstack([S.normals for S, _ in pieces])
        self.J = np.where(np.arange(self.normals.shape[1]) == 0, -1.0, 1.0)
        self.N = self.normals * self.J
        self.cs = np.array([c for _, c in pieces])

    def values(self, y: np.ndarray) -> np.ndarray:
        return np.arcsinh(np.abs(self.N @ y)) - self.cs

    @cached_property
    def gram(self) -> np.ndarray:
        """Minkowski Gram matrix of the normals."""
        return self.N @ self.normals.T

    def bracket(self, x: np.ndarray, lam: float) -> tuple[float, float]:
        """(lo, hi) around the envelope value at x.

        lo is the largest single-piece envelope, since f >= f_l.  hi is the
        best of x and the single-piece proxes y_l, each at distance
        t_l = min(lam, d_l) from x along the perpendicular to S_l, whose
        products with every normal follow from s = <x, n> and the Gram G:
        <y_l, n_m> = cosh(t_l) s_m - sign(s_l) sinh(t_l) (G_lm + s_l s_m) / sqrt(1 + s_l^2).
        """
        s = _mink_x_rows(self.normals, x)
        d = np.arcsinh(np.abs(s))
        t = np.minimum(lam, d)
        lo = np.max(np.where(d >= lam, d - lam / 2.0, d * d / (2.0 * lam)) - self.cs)
        toward = np.sign(s) * np.sinh(t) / np.sqrt(1.0 + s * s)
        q = np.cosh(t)[:, None] * s - toward[:, None] * (self.gram + np.outer(s, s))
        f_y = np.max(np.arcsinh(np.abs(q)) - self.cs, axis=1)
        hi = min(np.max(d - self.cs), np.min(f_y + t * t / (2.0 * lam)))
        return float(lo), float(hi)


class _ProxProblem:
    """The prox objective at x in the exp chart u -> exp_x(u @ U), U the frame at x."""

    def __init__(self, x: HPoint, lam: float, pieces: _StackedPieces):
        self.xc = x.coords
        self.U = _tangent_frame(x)
        self.lam = lam
        self.pieces = pieces

    def chart(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """y(u) = cosh|u| x + (sinh|u| / |u|) (u @ U), not renormalized, and dy/du."""
        xc, U = self.xc, self.U
        rho = np.linalg.norm(u)
        if rho < 1e-18:
            return xc, U.T
        w = u @ U
        s = np.sinh(rho) / rho
        ds = (np.cosh(rho) * rho - np.sinh(rho)) / rho ** 2
        y = np.cosh(rho) * xc + s * w
        return y, np.outer(xc, u) * s + np.outer(w, u) * (ds / rho) + s * U.T

    def point(self, u: np.ndarray) -> np.ndarray:
        """y(u) renormalized onto the hyperboloid (x itself, unchanged, at u = 0)."""
        p, _ = self.chart(u)
        return p if p is self.xc else p / np.sqrt(-_mink(p, p))

    def coords(self, y: np.ndarray) -> np.ndarray:
        """Chart coordinates u of the point y."""
        return self.U @ (self.pieces.J * _log_coords(self.xc, y))

    def phi(self, y: np.ndarray) -> float:
        dd = _dist_coords(self.xc, y)
        return float(np.max(self.pieces.values(y))) + dd * dd / (2.0 * self.lam)


def _prox_max_pieces(x: HPoint, lam: float, sp: _StackedPieces,
                     polish: bool = True) -> tuple[HPoint, float]:
    """High-accuracy prox for f = max_l { dist(., S_l) - c_l }.

    Three stages: closed-form single-piece candidates, an SLSQP solve of the
    smooth epigraph reformulation in chart coordinates (with analytic
    jacobians), then a Newton polish of the active-set stationarity system
    (skipped for value-only queries).  The returned value is the best
    candidate objective, so it upper-bounds the true envelope and never
    exceeds f(x).
    """
    prob = _ProxProblem(x, lam, sp)
    xc, N, cs = prob.xc, sp.N, sp.cs

    # stage 0: candidates (the query point and the proxes of the pieces
    # nearest the max, which are the only ones the minimizer can activate)
    candidates = [xc]
    for idx in np.argsort(sp.values(xc))[::-1][:3]:
        yc, _ = DistToSub(*sp.pieces[idx]).prox_pair(x, lam)
        candidates.append(yc.coords)
    vals = [prob.phi(y) for y in candidates]
    best = int(np.argmin(vals))
    y_best, v_best = candidates[best], vals[best]

    # stage 1: SLSQP on the epigraph form  min t + |u|^2/(2 lam)
    u0 = prob.coords(y_best)
    t_lb = float(-np.min(cs))
    t0 = max(float(np.max(sp.values(y_best))), t_lb) + 1e-9
    cache: dict = {}

    def _prep(z):
        key = z.tobytes()
        if cache.get("key") != key:
            y, dy = prob.chart(z[:-1])
            cache.update(key=key, dy=dy, q=N @ y)
        return cache

    def objective(z):
        return z[-1] + float(z[:-1] @ z[:-1]) / (2.0 * lam)

    def objective_jac(z):
        return np.concatenate([z[:-1] / lam, [1.0]])

    def constraints(z):
        cons = np.sinh(z[-1] + cs) ** 2 - _prep(z)["q"] ** 2
        return np.concatenate([cons, [lam * lam - float(z[:-1] @ z[:-1])]])

    def constraints_jac(z):
        st = _prep(z)
        Jm = np.zeros((len(cs) + 1, z.size))
        Jm[:-1, :-1] = -2.0 * st["q"][:, None] * (N @ st["dy"])
        Jm[:-1, -1] = np.sinh(2.0 * (z[-1] + cs))
        Jm[-1, :-1] = -2.0 * z[:-1]
        return Jm

    res = _optimize().minimize(
        objective, np.concatenate([u0, [t0]]), method="SLSQP",
        jac=objective_jac,
        constraints=[{"type": "ineq", "fun": constraints, "jac": constraints_jac}],
        bounds=[(None, None)] * len(u0) + [(t_lb, None)],
        options={"ftol": 1e-14, "maxiter": 120})
    y_s = prob.point(res.x[:-1])
    v_s = prob.phi(y_s)
    if v_s < v_best:
        y_best, v_best = y_s, v_s

    # stage 2: Newton polish of the active-set stationarity system
    if polish:
        polished = _polish_active_set(y_best, prob)
        if polished is not None:
            y_p, v_p = polished
            if v_p <= v_best + 1e-15:
                y_best, v_best = y_p, v_p

    yb = HPoint(y_best / np.sqrt(-_mink_x(y_best, y_best)))
    return yb, min(v_best, prob.phi(yb.coords))


def _log_coords(xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    u = -_mink(xc, yc)
    if u <= 1.0 + 1e-16:
        return np.zeros_like(xc)
    Dd = np.log(u + np.sqrt((u - 1.0) * (u + 1.0)))
    w = yc - u * xc
    nw = np.sqrt(max(_mink(w, w), 0.0))
    return (Dd / nw) * w if nw > 0 else np.zeros_like(xc)


def _polish_active_set(y_start: np.ndarray, prob: _ProxProblem):
    """Solve the KKT system of the prox on the detected active set.

    The piece gradients take one mat-vec per piece: the stacked ``N @ y``
    rounds differently and would move polished answers in the last bits.
    The residual evaluates only the active pieces; the final check reads
    every piece's value and forms no gradient.
    """
    sp, lam = prob.pieces, prob.lam
    d = prob.U.shape[0]
    vals = sp.values(y_start)
    t = float(np.max(vals))
    active = [i for i, v in enumerate(vals) if v >= t - 1e-6 * max(1.0, abs(t))]
    if not active:
        return None
    m = len(active)

    def grads_and_vals(u):
        y, dy = prob.chart(u)
        vlist, glist = [], []
        for i in active:
            A, c = sp.N[i:i + 1], sp.cs[i]
            q = A @ y
            nq = np.linalg.norm(q)
            vlist.append(np.arcsinh(nq) - c)
            if nq < 1e-300:
                glist.append(np.zeros(d))
            else:
                gy = (A.T @ (q / nq)) / np.sqrt(1.0 + nq * nq)
                glist.append(dy.T @ gy)
        return np.array(vlist), np.array(glist)

    def residual(z):
        u, wf = z[:d], z[d:]
        w = np.concatenate([wf, [1.0 - np.sum(wf)]])
        vlist, glist = grads_and_vals(u)
        stat = u / lam
        for wi, g in zip(w, glist):
            stat = stat + wi * g
        eq = vlist[:-1] - vlist[-1]
        return np.concatenate([stat, eq])

    z0 = np.concatenate([prob.coords(y_start), np.full(m - 1, 1.0 / m)])
    sol = _optimize().root(residual, z0, method="hybr", tol=1e-13)
    if not sol.success and np.linalg.norm(sol.fun) > 1e-9:
        return None
    u = sol.x[:d]
    w = np.concatenate([sol.x[d:], [1.0 - np.sum(sol.x[d:])]])
    if np.any(w < -1e-8) or np.any(w > 1.0 + 1e-8):
        return None
    if np.linalg.norm(u) > lam * (1.0 + 1e-8):
        return None
    y, _ = prob.chart(u)
    vlist = np.array([np.arcsinh(np.linalg.norm(sp.N[i:i + 1] @ y)) - c
                      for i, c in enumerate(sp.cs)])
    t_new = np.max(vlist[active])
    if np.max(vlist) > t_new + 1e-8:
        return None
    y = prob.point(u)
    return y, prob.phi(y)


# ---------------------------------------------------------------------------
# scaling taper
# ---------------------------------------------------------------------------


def taper(D, R: float):
    """C-infinity taper u(D) of a half squared distance D, with R its radius.

    Equals 1 for D <= R^2/2 and 1 - exp(-4/sqrt(2 D/R^2 - 1)) beyond; returns
    (value, first derivative, second derivative) in D.  The ``zoo-validate``
    row ``scalar-bounds`` checks that u + D u' >= 0 and 2 u' + D u'' <= 0
    (``scalar_bounds_hold``).
    """
    if R <= 0.0:
        raise DomainError("taper radius must be positive")
    Darr = np.asarray(D, dtype=float)
    scalar = Darr.ndim == 0
    Darr = np.atleast_1d(Darr)
    half = 0.5 * R * R
    u = np.ones_like(Darr)
    du = np.zeros_like(Darr)
    d2u = np.zeros_like(Darr)
    m = Darr > half
    if np.any(m):
        w = 2.0 * Darr[m] / (R * R) - 1.0
        tau = 1.0 / np.sqrt(w)
        e = np.exp(-4.0 * tau)
        u[m] = 1.0 - e
        du[m] = -4.0 * tau ** 3 * e / R ** 2
        d2u[m] = 4.0 * tau ** 5 * e * (3.0 - 4.0 * tau) / R ** 4
    if scalar:
        return float(u[0]), float(du[0]), float(d2u[0])
    return u, du, d2u


# ---------------------------------------------------------------------------
# sampled verification helpers (used by tests and the validation harness)
# ---------------------------------------------------------------------------


def subgradient_gap(f: FnOracle, x: HPoint, y: HPoint) -> float:
    """Slack f(y) - f(x) - <g, log_x(y)>; nonnegative for g-convex oracles."""
    Fx, g = f.eval(x)
    Fy = f.value(y)
    return Fy - Fx - float(_mink(g.vec, log(x, y).vec))


def midpoint_convexity_gap(f: FnOracle, x: HPoint, y: HPoint) -> float:
    """Slack (f(x)+f(y))/2 - f(midpoint); nonnegative for g-convex oracles."""
    mid = exp(x, log(x, y).scaled(0.5))
    return 0.5 * (f.value(x) + f.value(y)) - f.value(mid)


def sandwich_violation(fv: float, bracket: tuple[float, float], lam: float) -> float:
    """max(hi - fv, (fv - lam) - lo): the violation of f - lam <= f_lam <= f at
    a point where f = fv and lo <= f_lam <= hi.  A NaN carries through."""
    lo, hi = bracket
    return float(np.max([hi - fv, (fv - lam) - lo]))


CHORD_ALLOWANCE = 1e-3  # a sampled chord check of an L-smooth f allows L + this
SANDWICH_ALLOWANCE = 1e-9  # a sampled sandwich check allows a violation up to this


def worst_chord_slope(f: FnOracle, rng: np.random.Generator, center: HPoint,
                      radius: float, lam: float, n: int) -> float:
    """Largest gradient chord slope |P g(p) - g(q)| / h over n sampled chords.

    p is volume-uniform in B(center, radius), q = exp_p(h u) for a uniform
    unit tangent u and h uniform in [lam, 4 lam], and P transports g(p) to q.
    For an L-smooth f every slope is at most L.
    """
    worst = 0.0
    for _ in range(n):
        p = random_point_in_ball(rng, center, radius)
        u = random_unit_tangent(rng, p)
        h = lam * (1.0 + 3.0 * rng.uniform())
        q = exp(p, u.scaled(h))
        _, gp = f.eval(p)
        _, gq = f.eval(q)
        diffvec = ptransport(p, q, gp).vec - gq.vec
        slope = np.sqrt(max(float(np.sum(diffvec[1:] ** 2) - diffvec[0] ** 2), 0.0)) / h
        worst = float(np.maximum(worst, slope))  # carries a NaN slope through
    return worst


GCONVEX_SLACK = -1e-8  # a sampled subgradient or midpoint gap passes down to this
LIPSCHITZ_ALLOWANCE = 1e-9  # a sampled gradient norm may pass the Lipschitz constant by this
SCALAR_TOL = 1e-12  # zeta(t) <= 1 + t and the taper's sign conditions hold to this


def gconvex_holds(worst_gap: float) -> bool:
    """The smallest sampled subgradient or midpoint gap is >= GCONVEX_SLACK."""
    return bool(worst_gap >= GCONVEX_SLACK)


def lipschitz_holds(grad_norm: float, lipschitz: float) -> bool:
    """A gradient norm is at most the Lipschitz constant + LIPSCHITZ_ALLOWANCE."""
    return bool(grad_norm <= lipschitz + LIPSCHITZ_ALLOWANCE)


def scalar_bounds_hold(zeta_excess: float, growth: float, bend: float) -> bool:
    """max zeta(t) - (1 + t), min u + D u' and max 2 u' + D u'' within SCALAR_TOL of 0."""
    return bool(zeta_excess <= SCALAR_TOL and growth >= -SCALAR_TOL and bend <= SCALAR_TOL)


def zoo_checks(rng: np.random.Generator, d: int, n: int):
    """Yield the ``zoo-validate`` rows (case, measured, bound, passed) in order
    (README, "What each CLI row checks"); n samples per row in H^d."""
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
            worst = float(np.min([worst, subgradient_gap(o, a, b),
                                  midpoint_convexity_gap(o, a, b)]))
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
