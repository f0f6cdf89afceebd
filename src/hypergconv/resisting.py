"""Adversarial first-order oracles.

Three constructions:

* a nonsmooth resisting oracle that lazily builds a max of shifted
  distances to orthogonally-arranged hyperplanes, forcing a gap of at least
  ``r / (2 zeta(r) sqrt(T))`` for T queries;
* its Moreau-smoothed variant with smoothness ``1/tanh(a/(8T))`` and gap
  at least ``(L r^2 / T^2) / (16 zeta(r)^2)``;
* a fixed "worst function" ``dist(., x*) + max_k dist(., L_k)/cos(theta)``
  whose carefully selected subgradients keep span-respecting players (Polyak
  subgradient descent in particular) on a predetermined ladder of points.

Games are sequential-query objects; finalized functions are immutable oracles.
"""

from __future__ import annotations

import logging
from itertools import product
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .hyperboloid import (
    R_MAX,
    DomainError,
    GeometryViolation,
    HalfSpace,
    HPoint,
    HTangent,
    RangeLimitError,
    TotallyGeodesicSub,
    _halfspace_dist_at,
    _log_at,
    _mink_x,
    _mink_x_rows,
    _point_unchecked,
    base_point,
    dist,
    exp,
    gspan,
    log,
    ptransport,
    right_triangle,
    sub_dist,
    sub_dist_value,
    zeta,
)
from .oracles import (
    CHORD_ALLOWANCE,
    SANDWICH_ALLOWANCE,
    DistToSub,
    FnOracle,
    MoreauEnvelope,
    MoreauParams,
    OracleSample,
    ShiftedMax,
    sandwich_violation,
    worst_chord_slope,
)
from .sampling import make_rng, random_point_in_ball
from .solvers import Trace, polyak_sgd, rgd

__all__ = [
    "BudgetExhausted",
    "NonsmoothGame",
    "SmoothGame",
    "GameOracle",
    "WorstInstance",
    "WorstReplayReport",
    "nonsmooth_new",
    "smooth_new",
    "nonsmooth_gap_bound",
    "smooth_gap_bound",
    "play",
    "game_checks",
    "worst_build",
    "WorstFunctionOracle",
    "worst_trajectory_report",
    "ladder_checks",
    "a2_check",
]

logger = logging.getLogger(__name__)

# Queries are accepted as lying on a submanifold / inside a half-space
# within these residuals.
MEMBERSHIP_TOL = 1e-9


class BudgetExhausted(RuntimeError):
    """More adversarial queries were made than the game's budget T."""


def _rebase(x: HPoint, vec: np.ndarray) -> HTangent:
    """Tangent at x from an ambient vector that is tangent only approximately."""
    v = vec + _mink_x(vec, x.coords) * x.coords
    return HTangent(x, v)


def _game_scales(T: int, r: float) -> tuple[float, float]:
    """Hyperplane offset a and shift step delta of a T-query game of radius r."""
    if T < 2:
        raise DomainError("the construction needs T = d >= 2")
    if not (0.0 < r <= R_MAX):
        raise RangeLimitError(f"radius must lie in (0, {R_MAX}]")
    a = float(np.arctanh(np.tanh(r) / np.sqrt(T)))
    return a, a / (2.0 * T)


class _GameMax(ShiftedMax):
    """The running max of a game: parts dist(., S_l) - a, offsets l * delta.

    Every game hyperplane normal is zero off coordinates 0 and i, so the
    part values come from one ``_mink_x_rows`` call over the stored pairs
    ``rows[l] = (n_0, n_i)``, bit for bit the values of the parts themselves.
    Every part is a ``DistToSub``, so the max is g-convex and 1-Lipschitz.
    Its minimum is -a: part 0 is at least -a everywhere, and at x*, which lies
    on every chosen hyperplane, each part is at most -a.
    """

    lipschitz = 1.0
    warn_on_ties = True

    def __init__(self, parts, offsets: np.ndarray, rows: np.ndarray, idx: np.ndarray,
                 a: float):
        self.parts = parts
        self._cs, self._rows, self._idx, self.fmin = offsets, rows, idx, -a

    def normal_products(self, xs: np.ndarray) -> np.ndarray:
        """<x, n_l> for each point x of the stack xs and each part's normal n_l."""
        return _game_products(xs, self._rows, self._idx)

    def values(self, q: np.ndarray) -> np.ndarray:
        """``value`` at each point whose products with the normals are a row of q."""
        vals = self._shifted(q)
        return np.take_along_axis(vals, np.argmax(vals, axis=-1)[..., None], -1)[..., 0]

    def _part_values(self, x):
        return self._shifted(self.normal_products(x.coords))

    def _shifted(self, q):
        # the parts' own rule: -a on the hyperplane (DistToSub.value)
        d = np.arcsinh(np.sqrt(q * q))
        return np.where(d <= 1e-14, self.fmin, d + self.fmin) - self._cs


def _game_products(xs: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """<x, n_l> for the points x of the stack xs (..., D) and the hyperplane
    normals n_l whose coordinates 0 and idx[l] are ``rows[l]``: (..., len(idx))."""
    pairs = np.empty(xs.shape[:-1] + (len(idx), 2))
    pairs[..., 0], pairs[..., 1] = xs[..., :1], xs[..., idx]
    return _mink_x_rows(rows, pairs)


class _GameBase:
    """Shared state for the max-of-hyperplane-distance resisting games.

    S_i^s passes through z_i^s = exp(x_ref, s a e_i), orthogonal to the
    geodesic back to x_ref; swapping coordinates 1 and i maps S_1^s onto it.
    The game builds only S_1^+ and S_1^- and keeps the coordinates 0 and 1
    of each one's anchor and unit normal (see README, "Evaluating a max").
    S_i^s itself is built once, when (i, s) is chosen, inside the part that
    every running max shares.
    """

    def __init__(self, T: int, r: float):
        self.a, self.delta = _game_scales(T, r)
        self.T = T
        self.d = T
        self.r = float(r)
        self.xref = base_point(self.d)
        e1 = HTangent(self.xref, np.eye(1, self.d + 1, 1)[0])
        # _pair[j] = [[z_0, z_1], [n_0, n_1]] of S_1^s, j = 0 for s = +1, 1 for -1
        self._pair = np.zeros((2, 2, 2))
        for j, s in enumerate((+1, -1)):
            z = exp(self.xref, e1.scaled(self.a * s))
            n = log(z, self.xref)
            S = HalfSpace(z, n.scaled(1.0 / n.norm)).boundary
            both = np.vstack([S.point, S.normals[0]])
            if np.any(both[:, 2:]):
                raise GeometryViolation("game hyperplane is nonzero off coordinates 0 and 1")
            self._pair[j] = both[:, :2]
        self.remaining: list[int] = list(range(1, self.d + 1))
        self.chosen: list[tuple[int, int]] = []
        self._i = np.zeros(T, dtype=int)  # chosen[k] == (_i[k], _s[k])
        self._s = np.zeros(T, dtype=int)
        self._parts: list[DistToSub] = []  # dist(., S_i^s) - a, one per chosen (i, s)
        self.history: list[OracleSample] = []
        self.selection_margins: list[dict] = []
        self._final = None

    # -- construction pieces ------------------------------------------------

    def hyperplane(self, i: int, s: int) -> TotallyGeodesicSub:
        """S_i^s: the coordinates of S_1^s moved from 1 to i."""
        point, normal = np.zeros((2, self.d + 1))
        (point[0], point[i]), (normal[0], normal[i]) = self._pair[int(s < 0)]
        return TotallyGeodesicSub(point, normal)

    def _choose(self, i: int, s: int) -> None:
        self._i[len(self.chosen)], self._s[len(self.chosen)] = i, s
        self.chosen.append((i, s))
        self.remaining.remove(i)
        self._parts.append(DistToSub(self.hyperplane(i, s), self.a))

    def running_max(self, k: int) -> ShiftedMax:
        """The committed function after k+1 selections (pieces 0..k)."""
        offsets = np.arange(k + 1) * self.delta
        parts = list(zip(self._parts[:k + 1], offsets.tolist()))
        i, s = self._i[:k + 1], self._s[:k + 1]
        return _GameMax(parts, offsets, self._pair[(s < 0).astype(int), 1], i, self.a)

    def _select(self, x: HPoint) -> tuple[int, int]:
        """The remaining (i, s) with the largest h = dist(x, S_i^s) - a.

        Candidates are visited with i ascending, s = +1 before -1; the first
        largest wins, and the runner-up is the largest of the others.
        """
        keys = list(product(self.remaining, (+1, -1)))
        rows = np.tile(self._pair[:, 1], (len(self.remaining), 1))
        q = _game_products(x.coords, rows, np.repeat(self.remaining, 2))
        h = np.arcsinh(np.sqrt(q * q)) - self.a
        best = int(np.argmax(h))
        best_val = float(h[best])
        runner = float(np.max(np.delete(h, best)))
        if best_val < -MEMBERSHIP_TOL:
            logger.warning("selected h value %.3e is negative beyond tolerance", best_val)
        self.selection_margins.append(
            {"h_selected": best_val, "runner_up_gap": best_val - runner})
        return keys[best]

    def _advance(self, x: HPoint) -> ShiftedMax:
        if len(self.chosen) >= self.T:
            raise BudgetExhausted(f"all {self.T} adversarial responses consumed")
        self._choose(*self._select(x))
        return self.running_max(len(self.chosen) - 1)

    def _smooth(self, f: ShiftedMax):
        """The game's answer function built on a running max (the max itself)."""
        return f

    def respond(self, x: HPoint) -> OracleSample:
        F, g = self._smooth(self._advance(x)).eval(x)
        self.history.append(OracleSample(F, x, g))
        return self.history[-1]

    def _xstar(self) -> HPoint:
        vec = np.zeros(self.d + 1)
        for (i, s) in self.chosen:
            vec[i] = s
        return exp(self.xref, HTangent(self.xref, vec * (self.r / np.sqrt(self.d))))

    def finalize(self):
        """Commit to the final function; returns (oracle, minimizer, minimum)."""
        if self._final is None:
            for i in list(self.remaining):  # an early finalize pads with s = +1
                self._choose(i, +1)
            f = self._smooth(self.running_max(self.T - 1))
            self._final = (f, self._xstar(), f.fmin)
        return self._final

    def certificate(self) -> dict:
        """Measured finalize-time certificates (distances, minimum, law-of-cosines)."""
        f, xstar, fstar = self.finalize()
        fx, _ = f.eval(xstar)
        subs = [p.S for p in self._parts]
        subdists = [sub_dist_value(xstar, S) for S in subs]
        # the anchor z_i^s as stored: HPoint would renormalize it
        lawcos = [abs(np.cosh(dist(xstar, _point_unchecked(S.point)))
                      - np.cosh(self.r) / np.cosh(self.a)) for S in subs]
        return {
            "dist_xref_xstar": dist(self.xref, xstar),
            "f_at_xstar": fx,
            "fstar": fstar,
            "max_subdist_xstar": float(np.max(subdists)),
            "max_lawcos_residual": float(np.max(lawcos)),
            "gap_bound": self.gap_bound(),
            "min_recorded_gap": float(np.min([s.F - fstar for s in self.history],
                                             initial=np.inf)),
        }

    def replay_residual(self) -> float:
        """Largest |f(x_k) - F_k| of the final function over the transcript;
        np.max keeps a NaN, which the builtin max would drop."""
        f, _, _ = self.finalize()
        return float(np.max([abs(f.value(s.x) - s.F) for s in self.history]))

    def failed_checks(self, cert: dict, replay: float) -> list[str]:
        """Names of the failing checks of a certificate and replay residual
        (README, "What each CLI row checks"); a NaN fails its check."""
        passed = {
            "dist_xref_xstar": abs(cert["dist_xref_xstar"] - self.r) <= 1e-9,
            "f_at_xstar": abs(cert["f_at_xstar"] - cert["fstar"]) <= 1e-8,
            "max_subdist_xstar": cert["max_subdist_xstar"] <= 1e-8,
            "max_lawcos_residual": cert["max_lawcos_residual"] <= 1e-9,
            "min_recorded_gap": cert["min_recorded_gap"] >= cert["gap_bound"] - 1e-9,
            "replay_residual": replay <= 1e-9,
        }
        return [name for name, ok in passed.items() if not ok]

    def sampled_checks(self, seed: int) -> tuple[bool, dict]:
        """Whether the sampled checks pass, and what they measured: none here."""
        return True, {}

    def gap_bound(self) -> float:
        raise NotImplementedError


class NonsmoothGame(_GameBase):
    """Resisting oracle for Lipschitz g-convex optimization (budget T queries)."""

    def gap_bound(self) -> float:
        return nonsmooth_gap_bound(self.T, self.r)


class SmoothGame(_GameBase):
    """Moreau-smoothed resisting oracle; responses come from the running envelope."""

    def __init__(self, T: int, r: float):
        super().__init__(T, r)
        self.lam = self.delta / 4.0
        self.smoothness = 1.0 / np.tanh(self.lam)
        self._params = MoreauParams(self.lam)

    def _smooth(self, f: ShiftedMax):
        return MoreauEnvelope(f, self._params)

    def worst_sandwich(self, rng: np.random.Generator, n: int) -> float:
        """Largest violation of f_k - lam <= env_k <= f_k (running max f_k, its
        envelope env_k) at n volume-uniform points of B(x_k, delta/2) per query,
        decided from the envelope's closed-form bracket: no prox is solved.  A
        query's points share one products call (README, "The sandwich from the bracket")."""
        worst = 0.0
        for k in range(self.T):
            fk = self.running_max(k)
            xk = self.history[k].x
            ps = [random_point_in_ball(rng, xk, self.delta / 2.0).coords for _ in range(n)]
            q = fk.normal_products(np.reshape(ps, (n, self.d + 1)))
            v = sandwich_violation(fk.values(q), self._smooth(fk).brackets(q), self.lam)
            # np.max carries a NaN through; the builtin max would drop it
            worst = float(np.max(np.append(v, worst)))
        return worst

    def sampled_checks(self, seed: int, n_sandwich: int, n_chords: int) -> tuple[bool, dict]:
        """The sandwich at n_sandwich points per query, then n_chords chords of
        the final envelope in B(x_ref, r/2), both drawn from make_rng(seed + 1)."""
        rng = make_rng(seed + 1)
        worst_sandwich = self.worst_sandwich(rng, n_sandwich)
        f, _, _ = self.finalize()
        slope = worst_chord_slope(f, rng, self.xref, self.r / 2.0, self.lam, n_chords)
        return self.samples_pass(worst_sandwich, slope), {
            "worst_sandwich": worst_sandwich, "worst_chord_slope": slope, "L": self.smoothness}

    def samples_pass(self, worst_sandwich: float, worst_slope: float) -> bool:
        """Sandwich <= SANDWICH_ALLOWANCE, slope <= L + CHORD_ALLOWANCE; NaN fails."""
        return bool(worst_sandwich <= SANDWICH_ALLOWANCE
                    and worst_slope <= self.smoothness + CHORD_ALLOWANCE)

    def gap_bound(self) -> float:
        return smooth_gap_bound(self.T, self.r)


def nonsmooth_new(T: int, r: float) -> NonsmoothGame:
    return NonsmoothGame(T, r)


def smooth_new(T: int, r: float) -> SmoothGame:
    return SmoothGame(T, r)


def nonsmooth_gap_bound(T: int, r: float) -> float:
    """Certified floor on every recorded gap: r / (2 zeta(r) sqrt(T))."""
    _game_scales(T, r)  # raises on the (T, r) that the games refuse
    return r / (2.0 * float(zeta(r)) * np.sqrt(T))


def smooth_gap_bound(T: int, r: float) -> float:
    """Certified floor on every recorded gap: (L r^2 / T^2) / (16 zeta(r)^2).

    L = 1/tanh(delta/4) is the smoothness of the game's envelopes.
    """
    L = 1.0 / np.tanh(_game_scales(T, r)[1] / 4.0)
    return 0.5 * (L * r ** 2 / T ** 2) / (8.0 * float(zeta(r)) ** 2)


class GameOracle(FnOracle):
    """FnOracle facade over a game: adversarial for the first T queries, then frozen.

    The optimum value -a is known before play starts (it depends only on T
    and r), so exact-f* players can run against the adversary.
    """

    def __init__(self, game: _GameBase):
        self.game = game
        self.lipschitz = 1.0
        self.fmin = -game.a
        self.smoothness = getattr(game, "smoothness", None)

    def eval(self, x):
        if len(self.game.chosen) < self.game.T:
            s = self.game.respond(x)
            return s.F, s.g
        f, _, _ = self.game.finalize()
        return f.eval(x)


def play(game: _GameBase, player: str, seed: int) -> Trace:
    """Run a reference player for the game's T adversarial queries.

    ``polyak``: exact-f* Polyak subgradient descent from x_ref with certified
    radius r.  ``rgd``: fixed-step descent with step r / (4T).  ``random``:
    T volume-uniform queries in B(x_ref, r) drawn from ``make_rng(seed)``.
    Any other name raises ``ValueError``.
    """
    go = GameOracle(game)
    if player == "polyak":
        return polyak_sgd(go, fstar=-game.a, x0=game.xref, s0=game.r, T=game.T)
    if player == "rgd":
        return rgd(go, step=game.r / (4.0 * game.T), x0=game.xref, T=game.T)
    if player != "random":
        raise DomainError(f"unknown player {player!r}")
    rng = make_rng(seed)
    trace = Trace()
    for _ in range(game.T):
        x = random_point_in_ball(rng, game.xref, game.r)
        F, g = go.eval(x)
        trace.samples.append(OracleSample(F, x, g))
    return trace


def game_checks(new_game, T: int, r: float, players, seed: int, transcript: dict,
                **samples):
    """Yield the ``lb-nonsmooth`` or ``lb-smooth`` rows (case, measured, bound,
    passed), one per player of a fresh ``new_game(T, r)``, and record each
    player's certificate in ``transcript[player]`` (README, "What each CLI row
    checks"); ``samples`` are the counts of the game's ``sampled_checks``."""
    if isinstance(players, str):
        raise DomainError(f"'players' must be a list of names, not the string {players!r}")
    for name in players:
        game = new_game(T, r)
        play(game, name, seed)
        cert, replay = game.certificate(), game.replay_residual()
        sampled_ok, sampled = game.sampled_checks(seed, **samples)
        transcript[name] = {"certificate": cert, "replay_residual": replay,
                            "chosen": game.chosen, **sampled}
        yield (f"player={name}", cert["min_recorded_gap"], cert["gap_bound"],
               not game.failed_checks(cert, replay) and sampled_ok)


# ---------------------------------------------------------------------------
# Worst function in the world
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WorstInstance:
    """Predetermined query ladder and half-space fan for the worst function.

    Row i of ``axes`` is the (i+1)-th frame vector in ambient coordinates.
    Step k of the construction turns row k-1 into the ladder direction at
    ``ladder[k]``; transport along the ladder fixes every other row in exact
    arithmetic (each is orthogonal to the step plane), so the rows are stored
    once and row d-1 stays the untouched axis e_d.
    """

    theta: float
    eps: float
    r: float
    d: int
    M: float
    ladder: list[HPoint]
    radii: list[float]
    deltas: list[float]
    axes: np.ndarray
    xstar: HPoint
    halfspaces: list[HalfSpace]

    @property
    def T(self) -> int:
        return self.d

    def gtilde(self, k: int) -> np.ndarray:
        """Ambient coordinates of the oracle's answer at ladder point k."""
        return -np.eye(1, self.d + 1, k + 1)[0] / np.cos(self.theta)


def _ladder_size(eps: float, r: float) -> int:
    """Number of ladder points d = floor(zeta(r) / (32 eps^2)), at least 2."""
    if not (0.0 < eps <= 1.0 / (4.0 * np.sqrt(2.0)) + 1e-15):
        raise DomainError("eps must lie in (0, 1/(4 sqrt(2))]")
    if not (0.0 < r < np.inf):
        raise DomainError(f"radius must be finite and positive, got r={r}")
    d = int(np.floor(float(zeta(r)) / (32.0 * eps * eps)))
    if d < 2:
        raise DomainError(f"eps={eps} too large for r={r}: ladder has d={d} < 2 levels")
    return d


def _ladder(ar, e, r, d: int, pick: int):
    """Radii, deltas, ladder points, x* and unit fan normals of the worst
    function, from the identity rows ``e`` in the arithmetic ``ar``: its log
    is the unit direction of log_x(y), point returns to the hyperboloid and
    fan scales to unit norm.  Arrays stay on the left of every product: an
    mpf on the left first tries to convert the whole array."""
    radii, deltas, y = [r], [], [ar.point(e[0])]
    for k in range(1, d):
        delta, rk = ar.triangle(radii[k - 1])
        deltas.append(delta)
        radii.append(rk)
        y.append(ar.point(y[k - 1] * ar.cosh(delta) + e[k] * ar.sinh(delta)))
    xs = ar.point(y[-1] * ar.cosh(radii[-1]) + e[d] * (pick * ar.sinh(radii[-1])))
    normals = [ar.fan(e[k + 1] / ar.costh - ar.log(y[k], xs)) for k in range(d - 1)]
    return radii, deltas, y, xs, normals


def worst_build(eps: float, r: float, pick: int = +1) -> WorstInstance:
    """Build the worst-function geometry for accuracy eps and radius r.

    The ladder holds d = floor(zeta(r) / (32 eps^2)) points; each step is a
    right hyperbolic triangle with angle theta = arccos(4 eps) at the current
    point, so radii shrink by sinh(r_k) = sin(theta) sinh(r_{k-1}) while
    staying at least r/2.
    """
    # the fan of half-spaces multiplies two cosh(r)-size coordinate scales, so
    # double precision only supports the construction up to r ~ 14 (certificates
    # are criterion-grade up to r ~ 10); highprec.worst_trajectory_report covers
    # larger radii
    if not (0.0 < r <= 14.0):
        raise RangeLimitError(
            "worst_build supports r <= 14 in double precision; "
            "use highprec.worst_trajectory_report for larger radii")
    if pick not in (+1, -1):
        raise DomainError("pick must be +1 or -1")
    d = _ladder_size(eps, r)
    costh = 4.0 * eps
    theta = float(np.arccos(costh))

    def unit_log(x, y):
        lg = log(_point_unchecked(x), _point_unchecked(y))
        return lg.vec / lg.norm

    def fan(V):
        nV = np.sqrt(max(_mink_x(V, V), 0.0))
        if not (abs(nV - np.tan(theta)) <= 1e-6 * max(1.0, np.tan(theta))):
            raise GeometryViolation("half-space normal norm deviates from tan(theta)")
        return V / nV

    # point normalizes once before HPoint normalizes again, as the ladder
    # always has: the pinned build bytes and replay errors depend on both
    ar = SimpleNamespace(
        costh=costh, cosh=np.cosh, sinh=np.sinh, log=unit_log, fan=fan,
        triangle=lambda r0: right_triangle(r0, theta),
        point=lambda v: HPoint(v / np.sqrt(-_mink_x(v, v))).coords)
    radii, deltas, ys, xs, normals = _ladder(ar, np.eye(d + 1), float(r), d, pick)
    y = [_point_unchecked(c) for c in ys]
    axes = np.eye(d, d + 1, 1)
    for k, delta in enumerate(deltas):
        axes[k] = np.sinh(delta) * ys[k] + np.cosh(delta) * axes[k]

    halfspaces = [HalfSpace(yk, _rebase(yk, n)) for yk, n in zip(y, normals)]
    inst = WorstInstance(theta=theta, eps=eps, r=float(r), d=d, M=2.0 / costh,
                         ladder=y, radii=radii, deltas=deltas, axes=axes,
                         xstar=_point_unchecked(xs), halfspaces=halfspaces)
    _verify_instance(inst)
    return inst


def _verify_instance(inst: WorstInstance) -> None:
    """Build-time invariant checks; raises GeometryViolation on failure."""
    d, ax = inst.d, inst.axes
    for k in range(1, d):
        lhs = np.cosh(inst.radii[k - 1])
        rhs = np.cosh(inst.radii[k]) * np.cosh(inst.deltas[k - 1])
        if not (abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)):
            raise GeometryViolation("triangle identity failed in the ladder")
    if not (np.min(inst.radii) >= inst.r / 2.0 - 1e-9):
        raise GeometryViolation("ladder radius fell below r/2")
    gram = _mink_x_rows(np.repeat(ax, d, 0), np.tile(ax, (d, 1))).reshape(d, d)
    if not (np.max(np.abs(gram - np.eye(d))) <= 1e-8):
        raise GeometryViolation("ladder axes lost orthonormality")
    for k in range(1, d):
        if not (np.max(np.abs(_mink_x_rows(ax[:k], inst.ladder[k].coords))) <= 1e-8):
            raise GeometryViolation("ladder point left its orthogonality slab")
    lg_last = log(inst.ladder[-1], inst.xstar)
    if not (np.max(np.abs(_mink_x_rows(ax[:d - 1], lg_last.vec))) <= 1e-8):
        raise GeometryViolation("x* direction is not orthogonal to the ladder span")
    for L in inst.halfspaces:
        if not (abs(L.margin(inst.xstar)) <= 1e-8):
            raise GeometryViolation("x* is not on a half-space boundary")


class WorstFunctionOracle(FnOracle):
    """Honest oracle for dist(., x*) + max_k dist(., L_k)/cos(theta).

    The subgradient selection is the information-hiding one: at a point of
    the k-th ladder span that satisfies all past half-space constraints, the
    answer combines the transported half-space normal with the direction to
    x*, leaving the next span tangent.  Off that locus the oracle falls back
    to plain max-rule subgradients; if the query violates a half-space
    constraint the fallback is flagged (the hiding guarantee needs queries to
    stay inside all committed half-spaces).
    """

    def __init__(self, inst: WorstInstance):
        self.inst = inst
        self.lipschitz = inst.M
        self.fmin = 0.0
        self._costh = np.cos(inst.theta)

    def _span_index(self, x: HPoint) -> int | None:
        # ladder span k is M intersect span(e_0..e_k); membership means the
        # coordinates beyond index k vanish
        for k in range(self.inst.d - 1):
            tail = x.coords[k + 1:]
            if np.arcsinh(np.linalg.norm(tail)) <= MEMBERSHIP_TOL:
                return k
        return None

    def eval(self, x):
        inst = self.inst
        margins = np.array([L.margin(x) for L in inst.halfspaces])
        hs = np.array([_halfspace_dist_at(m) for m in margins])
        dyx, mx = dist(x, inst.xstar), float(np.max(hs))
        F = dyx + mx / self._costh
        inside = bool(np.all(margins >= -MEMBERSHIP_TOL))

        for k, yk in enumerate(inst.ladder):
            if dist(x, yk) <= MEMBERSHIP_TOL:
                if k <= inst.d - 2:
                    return F, _rebase(x, inst.gtilde(k))
                break

        k = self._span_index(x)
        if k is not None and inside:
            lg = _log_at(x, inst.xstar, dyx)
            yk1 = inst.ladder[k + 1]
            lk1 = log(x, yk1)
            dk1 = lk1.norm
            if dyx > 0 and dk1 > 0:
                c = _mink_x(lk1.vec, lg.vec) / (dk1 * dyx)
                c = min(max(c, -1.0), 1.0)
                sin_ty = np.sqrt(max(1.0 - c * c, 0.0))
                pn = ptransport(inst.halfspaces[k].anchor, x, inst.halfspaces[k].normal)
                ghat = -(sin_ty / self._costh) * pn.vec
                return F, _rebase(x, ghat - lg.vec / dyx)

        # fallback: max-rule subgradient of the half-space term plus the
        # distance gradient
        vec = np.zeros_like(x.coords)
        if dyx > 1e-14:
            vec -= _log_at(x, inst.xstar, dyx).vec / dyx
        if mx > 0.0:
            kk = int(np.argmax(hs))
            dsub, foot = sub_dist(x, inst.halfspaces[kk].boundary)
            if dsub > 1e-14:
                vec -= log(x, foot).vec / (dsub * self._costh)
        if not inside:
            logger.warning("query outside a committed half-space "
                           "(min margin %.3e): hiding guarantee void", margins.min())
        return F, _rebase(x, vec)


@dataclass(frozen=True)
class WorstReplayReport:
    """Measured deviations of the Polyak run from the predicted ladder."""

    d: int
    M: float
    gaps: list[float]
    radii: list[float]
    max_ladder_dist: float
    max_radius_err: float
    max_step_err: float
    max_gap_err: float
    min_gap: float

    def checks(self, r: float) -> list[tuple[str, float, float, bool]]:
        """(case, measured, bound, passed) of each ladder check at radius r
        (README, "What each CLI row checks"); a NaN fails its check."""
        errs = [("trajectory", self.max_ladder_dist, 1e-6),
                ("radii", self.max_radius_err, 1e-8), ("steps", self.max_step_err, 1e-8)]
        return [(case, err, tol, err <= tol) for case, err, tol in errs] + [
            ("gap=floor(r/2)", self.min_gap, r / 2.0,
             self.min_gap >= r / 2.0 - 1e-6 and self.max_gap_err <= 1e-6)]


def _max_abs_diff(xs, ys) -> float:
    # float or mpf pairs; rounding to float is monotone, so the largest rounded
    # difference is the rounded largest one, and np.max keeps a NaN anywhere
    return float(np.max([float(abs(a - b)) for a, b in zip(xs, ys)]))


def _replay_report(d, M, radii, deltas, gaps, ss, etas, ladder_dists) -> WorstReplayReport:
    """A replay's gaps, radii ss, steps etas and ladder distances (float or mpf)."""
    fgaps = [float(g) for g in gaps]
    return WorstReplayReport(
        d=d, M=float(M), gaps=fgaps, radii=[float(rk) for rk in radii],
        max_ladder_dist=float(np.max([float(t) for t in ladder_dists])),
        max_radius_err=_max_abs_diff(ss, radii),
        max_step_err=_max_abs_diff(etas, deltas),
        max_gap_err=_max_abs_diff(gaps, radii),
        min_gap=float(np.min(fgaps)),
    )


def worst_trajectory_report(eps: float, r: float) -> WorstReplayReport:
    """Build the instance, run Polyak descent from the first ladder point and
    measure its deviations from the ladder in float64 (r <= 14; the mpmath
    twin is ``highprec.worst_trajectory_report``, see README, "The
    worst-function ladder: r ≤ 14 in float64, highprec beyond 10")."""
    inst = worst_build(eps, r)
    trace = polyak_sgd(WorstFunctionOracle(inst), fstar=0.0, x0=inst.ladder[0],
                       s0=inst.r, T=inst.T)
    return _replay_report(inst.d, inst.M, inst.radii, inst.deltas, trace.gaps,
                          trace.radii, trace.step_lengths,
                          [dist(s.x, y) for s, y in zip(trace.samples, inst.ladder)])


def ladder_checks(eps: float, r: float, transcript: dict, keys=()):
    """Yield the ``polyak-worst`` rows of ``WorstReplayReport.checks(r)`` and
    record the report in ``transcript``.  The replay runs in mpmath exactly
    when r > 10, so a caller whose parameter ``keys`` name ``highprec`` is
    refused."""
    if "highprec" in keys:
        raise DomainError("polyak-worst takes no 'highprec' key: the mpmath "
                          "replay runs exactly when r > 10")
    use_hp = r > 10.0
    if use_hp:
        # imported here so that ``import hypergconv.cli`` never loads mpmath
        from . import highprec
        rep = highprec.worst_trajectory_report(eps, r)
    else:
        rep = worst_trajectory_report(eps, r)
    transcript.update({"d": rep.d, "highprec": use_hp, "ladder_err": rep.max_ladder_dist,
                       "radius_err": rep.max_radius_err, "step_err": rep.max_step_err,
                       "gap_err": rep.max_gap_err, "min_gap": rep.min_gap})
    for case, measured, bound, passed in rep.checks(r):
        yield f"eps={eps},r={r},{case}", measured, bound, passed


# ---------------------------------------------------------------------------
# trace checks
# ---------------------------------------------------------------------------


@dataclass
class QueryCheck:
    k: int
    a1_ok: bool
    a1_residual: float
    a2_ok: bool
    min_margin: float


@dataclass
class TraceReport:
    rows: list[QueryCheck] = field(default_factory=list)

    @property
    def a1_all(self) -> bool:
        return all(r.a1_ok for r in self.rows)

    @property
    def a2_all(self) -> bool:
        return all(r.a2_ok for r in self.rows)


def a2_check(inst: WorstInstance, trace: Trace) -> TraceReport:
    """Per-query containment report: half-space membership and span containment.

    The span condition requires each query to lie in the minimal totally
    geodesic submanifold of all previous queries and answers (residual 1e-7);
    the membership condition requires each query x_k to lie inside every
    half-space committed before step k (translated margin tolerance 1e-9).
    An empty trace passes vacuously.
    """
    report = TraceReport()
    pts: list[HPoint] = []
    vecs: list[HTangent] = []
    for k, sample in enumerate(trace.samples):
        x = sample.x
        if k == 0:
            a1_res = dist(x, inst.ladder[0])
        else:
            span = gspan(pts, [v for v in vecs if v.norm > 0])
            a1_res = sub_dist_value(x, span)
        a1_ok = a1_res <= 1e-7
        upto = min(k, len(inst.halfspaces))
        margins = [inst.halfspaces[i].margin(x) for i in range(upto)]
        mm = np.min(margins, initial=np.inf)
        report.rows.append(QueryCheck(k, a1_ok, float(a1_res),
                                      bool(mm >= -MEMBERSHIP_TOL), float(mm)))
        pts.append(x)
        vecs.append(sample.g)
    return report

