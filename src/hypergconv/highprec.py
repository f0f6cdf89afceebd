"""Arbitrary-precision replay of the worst-function construction.

Hyperboloid coordinates at radius r carry cosh(r)-scale entries, and the
bilinear forms of the worst-function fan cancel pairs of them, so double
precision loses roughly 2 r / ln(10) digits: exact-trajectory certificates at
r = 20 are out of reach of float64 no matter how the forms are evaluated.
This module builds the ladder through ``resisting._ladder`` in mpmath reals,
replays the Polyak recursion on it and reports the measured deviations, which
the float64 implementation is cross-checked against at small radii.

Only the forms the replay needs are implemented; the general-purpose float64
API lives in ``resisting``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from mpmath import libmp, mp, mpf

from . import resisting
from .solvers import CertificateError, _polyak_step

__all__ = ["worst_trajectory_report"]

# Working precision of the replay, in decimal digits, and the binary
# precision and rounding that mp.workdps(DPS) sets.
DPS = 60
_PREC, _RND = libmp.dps_to_prec(DPS), libmp.round_nearest


def _mdot(u, v):
    # the libmp calls that mpf's + - * make, without the object wrapper; a
    # pair with an exact zero is skipped, since its product is fzero and
    # mpf_add(s, fzero) returns s rounded to the precision s already has
    # (iterate and ladder point k are zero past coordinate k, a unit axis
    # everywhere but one coordinate)
    mul, add, zero = libmp.mpf_mul, libmp.mpf_add, libmp.fzero
    s = zero
    for a, b in zip(u[1:], v[1:]):
        a, b = a._mpf_, b._mpf_
        if a != zero and b != zero:
            s = add(s, mul(a, b, _PREC, _RND), _PREC, _RND)
    t = mul(u[0]._mpf_, v[0]._mpf_, _PREC, _RND)
    return mp.make_mpf(libmp.mpf_sub(s, t, _PREC, _RND))


def _dist(x, y):
    u = -_mdot(x, y)
    if u < 1:
        u = mpf(1)
    return mp.acosh(u)


def _exp(x, v):
    t = mp.sqrt(_mdot(v, v))
    if t == 0:
        return list(x)
    c, s = mp.cosh(t), mp.sinh(t) / t
    return [c * xi + s * vi for xi, vi in zip(x, v)]


def _log(x, y):
    d = _dist(x, y)
    if d == 0:
        return [mpf(0)] * len(x)
    c = mp.cosh(d)
    w = [yi - c * xi for yi, xi in zip(y, x)]
    nw = mp.sqrt(max(_mdot(w, w), mpf(0)))
    return [wi * d / nw for wi in w]


def _unit_log(x, y):
    lg = np.array(_log(x, y), dtype=object)
    dd = mp.sqrt(_mdot(lg, lg))
    return lg / dd if dd else lg


def _fan_rows(normals) -> np.ndarray:
    """The fan normals as float64 rows, coordinate 0 negated, so that
    ``_fan_rows(normals) @ x`` approximates the forms ``<x, n_j>``."""
    nf = np.array([[float(v) for v in n] for n in normals])
    nf[:, 0] = -nf[:, 0]
    return nf


def _fan_screen(nf: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Float64 forms ``mf`` of x against the rows of ``_fan_rows`` and bounds E
    with ``|mf_j - _mdot(x, n_j)| <= E_j / 2`` (README, "The fan screen").

    E / 2 covers the float64 conversion of both operands (2^-53 relative
    each, 2^-1074 absolute where they underflow), the float dot in any order
    (gamma_D times sum |x_i n_i|, and underflow) and the 203-bit rounding of
    ``_mdot``; the factor 2 leaves room for the rounding of E and of
    ``E - mf`` in ``_fan_candidates``.  Non-finite entries propagate into
    ``mf`` or E.
    """
    xf = np.array([float(v) for v in x])
    ax = np.abs(xf)
    D = xf.size
    mf = nf @ xf
    size = np.abs(nf) @ ax
    tiny = 4.0 * D * 2.0 ** -1074 * (2.0 + ax.max() + np.abs(nf).max())
    return mf, (2 * D + 16) * 2.0 ** -53 * size + tiny


def _fan_candidates(mf: np.ndarray, E: np.ndarray) -> list[int]:
    """Indices j, in order, whose ``_mdot(x, n_j)`` could be the most negative
    form of the fan: ``E_j - mf_j`` (an upper bound on ``-<x, n_j>``) is
    positive and reaches the largest lower bound ``-mf_k - E_k``.  Any
    non-finite entry makes every index a candidate."""
    hi, lo = E - mf, -mf - E
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        return list(range(len(mf)))
    return np.flatnonzero((hi > 0) & (hi >= max(0.0, lo.max()))).tolist()


def _replay_value(x, xs, normals, nf, costh):
    """dist(x, x*) + max(0, max_j asinh(-<x, n_j>)) / cos(theta), folding the
    screened candidates in fan order; the bits equal those of the fold over
    every normal (README, "The fan screen")."""
    term = mpf(0)
    for j in _fan_candidates(*_fan_screen(nf, x)):
        m = _mdot(x, normals[j])
        if m < 0:
            term = max(term, mp.asinh(-m))
    return _dist(x, xs) + term / costh


def worst_trajectory_report(eps: float, r: float) -> resisting.WorstReplayReport:
    """Build the instance, run Polyak subgradient descent, measure deviations.

    The subgradient at the k-th ladder point is the committed answer
    -e_{k+1}/cos(theta); the run should reproduce the ladder exactly, with
    the certified radius matching the ladder radius and each step length
    matching the ladder edge.  Step k of the construction turns only the
    frame vector that starts as e[k], so step k, the k-th answer (e[k+1]) and
    x* (e[d]) read untouched identity rows; like ``resisting.worst_build``,
    the replay never transports a frame.
    """
    d = resisting._ladder_size(eps, r)
    with mp.workdps(DPS):
        costh = 4 * mpf(repr(eps))
        sinth = mp.sqrt(1 - costh * costh)
        e = np.vectorize(mpf, otypes=[object])(np.eye(d + 1))
        ar = SimpleNamespace(
            costh=costh, cosh=mp.cosh, sinh=mp.sinh, point=lambda v: v,
            triangle=lambda rk: (mp.atanh(costh * mp.tanh(rk)),
                                 mp.asinh(sinth * mp.sinh(rk))),
            log=_unit_log, fan=lambda V: V / mp.sqrt(_mdot(V, V)))
        radii, deltas, y, xs, normals = resisting._ladder(
            ar, e, mpf(repr(r)), d, +1)

        nf = _fan_rows(normals)

        # acosh amplifies roundoff to 10^(-DPS/2) near coincident points, so
        # the match tolerance must sit well above that floor
        ladder_tol = mpf(10) ** (-(DPS // 2 - 5))
        # dist(y_j, y_k) >= radii[j] - radii[k] through x*, so with every
        # radius gap above 2 ladder_tol a match at y[k] has no match before it
        if min((a - b for a, b in zip(radii, radii[1:])), default=mp.inf) <= 2 * ladder_tol:
            raise AssertionError("ladder radii closer than twice the match tolerance")

        def answer(x, k):
            # iterate k sits at y[k] when the run follows the ladder; any other
            # point is answered at the first ladder point it matches
            if _dist(x, y[k]) > ladder_tol:
                k = next((j for j in range(d) if _dist(x, y[j]) <= ladder_tol), None)
            if k is not None and k <= d - 2:
                return [-v / costh for v in e[k + 1]]
            return -_unit_log(x, xs)

        # the value is a dist: a miss below its acosh floor above is roundoff
        slack = mpf(10) ** -(DPS // 2)
        x, s = list(y[0]), radii[0]
        iterates = [list(x)]
        gaps, ss, etas = [], [], []
        for k in range(d):
            F = _replay_value(x, xs, normals, nf, costh)
            gaps.append(F)
            ss.append(s)
            if not (-F <= slack):
                raise CertificateError(f"replayed value {F} is below f* = 0")
            if k == d - 1:
                break
            g = answer(x, k)
            gn = mp.sqrt(_mdot(g, g))
            if not mp.isfinite(gn):
                raise CertificateError(f"subgradient norm {gn} at step {k} is not finite")
            eta_g, s = _polyak_step(mp, F, gn, s, slack)
            etas.append(eta_g)
            x = _exp(x, [-eta_g / gn * gi for gi in g])
            nq = mp.sqrt(-_mdot(x, x))
            x = [xi / nq for xi in x]
            iterates.append(list(x))

        return resisting._replay_report(
            d, 2 / costh, radii, deltas, gaps, ss, etas,
            [_dist(a, yk) for a, yk in zip(iterates, y)])
