"""Hyperboloid-model geometry for hyperbolic space of curvature -1.

Points live on the upper sheet ``{x in R^{d+1} : <x,x> = -1, x_0 > 0}`` of the
two-sheeted hyperboloid in Minkowski space with signature (-,+,...,+).  All
operations here are exact closed forms; the only numerics are stability guards
(stable arccosh near coincident points, re-projection after exp/transport,
rank thresholds in span computations).

Curvature is fixed at -1 throughout: for other curvatures only the product
``r * sqrt(-K)`` matters, so callers rescale radii instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "R_MAX",
    "GeometryError",
    "DimensionMismatch",
    "GeometryViolation",
    "RangeLimitError",
    "DomainError",
    "HPoint",
    "HTangent",
    "TotallyGeodesicSub",
    "HalfSpace",
    "mink_inner",
    "dist",
    "exp",
    "log",
    "ptransport",
    "zeta",
    "gspan",
    "sub_exp",
    "sub_dist",
    "sub_dist_value",
    "halfspace_dist",
    "right_triangle",
    "base_point",
    "frame_at_base",
]

# Tangent norms beyond this overflow cosh in double precision headroom.
R_MAX = 30.0

# Constructor invariant tolerance for points and tangents.
POINT_TOL = 1e-10

# Rank cutoff for span computations.
RANK_TOL = 1e-9

# Switch to the sqrt series of arccosh below this value of u - 1.
_ACOSH_SERIES_CUTOFF = 1e-8

# cosh(17): past this x_0, exp checks the point it returns as dist does
_COSH_17 = 12077476.37678767


class GeometryError(ValueError):
    """Base class for geometric input violations."""


class DimensionMismatch(GeometryError):
    """Operands live in ambient spaces of different dimensions."""


class GeometryViolation(GeometryError):
    """Input violates a manifold invariant beyond tolerance."""


class RangeLimitError(GeometryError):
    """Requested radius/tangent length exceeds the double-precision guard."""


class DomainError(GeometryError):
    """Scalar argument outside the function's domain."""


def _mink(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski form without input validation (broadcasts over leading axes)."""
    return np.sum(u[..., 1:] * v[..., 1:], axis=-1) - u[..., 0] * v[..., 0]


_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

# Longest vectors whose compensated form runs as a loop over Python floats;
# below about this length numpy's per-call dispatch costs more than the
# arithmetic (see README, "The compensated form").
_MINK_LOOP_MAX = 32


def _mink_x(u: np.ndarray, v: np.ndarray) -> float:
    """Compensated Minkowski form of two 1-d float64 vectors.

    Points at radius rho from the chart center have coordinates of size
    cosh(rho); the plain form then cancels catastrophically (error
    eps*cosh(rho)^2, i.e. total loss beyond rho ~ 18).  Dekker two-products
    plus exact summation evaluate the form of the stored doubles exactly, so
    only the representation error of the inputs remains.  Short vectors run
    the operations of ``_two_products`` on Python floats: every term is the
    same double, and ``fsum`` is correctly rounded, so the order of the
    terms does not matter and both paths give the same bits.
    """
    if len(u) > _MINK_LOOP_MAX:
        p, err = _two_products(u, v)
        return math.fsum(p.tolist() + err.tolist())
    terms = []
    for a, b in zip(u.tolist(), v.tolist(), strict=True):
        p = a * b
        t = _SPLITTER * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLITTER * b
        bh = t - (t - b)
        bl = b - bh
        terms += (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    terms[0] = -terms[0]
    terms[1] = -terms[1]
    return math.fsum(terms)


def _mink_x_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``_mink_x``: entry j equals ``_mink_x(u[j], v[j])`` bit for bit.

    The Dekker products of all rows form as arrays; only the exact sums stay
    per row; leading axes broadcast.  A sparse row may be passed as its
    gathered nonzero coordinates (coordinate 0 first): the dropped terms are
    exact zeros, which leave a correctly rounded sum unchanged.
    """
    terms = np.concatenate(_two_products(u, v), axis=-1)
    sums = [math.fsum(t) for t in terms.reshape(-1, terms.shape[-1]).tolist()]
    return np.array(sums).reshape(terms.shape[:-1])


def _two_products(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker two-products u*v = p + err along the last axis, coordinate 0
    negated (the Minkowski sign).  Leading axes broadcast; last axes of
    different lengths raise ``ValueError``, as the loop's ``zip`` does."""
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"lengths differ: {u.shape[-1]} vs {v.shape[-1]}")
    p = u * v
    uu = _SPLITTER * u
    uh = uu - (uu - u)
    ul = u - uh
    vv = _SPLITTER * v
    vh = vv - (vv - v)
    vl = v - vh
    err = ((uh * vh - p) + uh * vl + ul * vh) + ul * vl
    p[..., 0] = -p[..., 0]
    err[..., 0] = -err[..., 0]
    return p, err


def mink_inner(u, v) -> float | np.ndarray:
    """Minkowski inner product -u0*v0 + sum_i u_i*v_i."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {u.shape[-1]} vs {v.shape[-1]}")
    if u.shape[-1] < 2:
        raise DimensionMismatch("ambient dimension must be at least 2")
    out = _mink(u, v)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class HPoint:
    """Point on the hyperboloid: <x,x> = -1 (within 1e-10), x_0 > 0."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatch("point needs a 1-d ambient vector, size >= 2")
        q = _mink_x(arr, arr)
        if not abs(q + 1.0) <= POINT_TOL:  # NaN included
            # the membership defect of representable points grows like
            # eps * |x|_E^2, so the tolerance is scale-aware beyond unit
            # coords; it is at least POINT_TOL, so it is only needed here
            tol = POINT_TOL * max(1.0, float(arr @ arr) * 1e-5)
            if not np.isfinite(q) or abs(q + 1.0) > tol:
                raise GeometryViolation(f"<x,x> = {q}, expected -1 within {tol}")
        if arr[0] <= 0.0:
            raise GeometryViolation("point is not on the upper sheet (x0 <= 0)")
        arr = arr / np.sqrt(-q)
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "_q", None)

    @property
    def mnorm2(self) -> float:
        """Measured Minkowski square of the stored coordinates (cached)."""
        q = getattr(self, "_q", None)
        if q is None:
            q = _mink_x(self.coords, self.coords)
            object.__setattr__(self, "_q", q)
        return q

    @property
    def d(self) -> int:
        return self.coords.size - 1

    def __repr__(self):
        return f"HPoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class HTangent:
    """Tangent vector at ``base``: <base, vec> = 0 (within 1e-10)."""

    base: HPoint
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        x = self.base.coords
        if v.shape != x.shape:
            raise DimensionMismatch("tangent vector/base point dimension mismatch")
        ip = _mink_x(x, v)
        if not abs(ip) <= POINT_TOL:  # NaN included; the scaled tolerance is larger
            scale = max(1.0, float(np.linalg.norm(v)) * float(np.linalg.norm(x)) * 1e-5)
            if not np.isfinite(ip) or abs(ip) > POINT_TOL * scale:
                raise GeometryViolation(
                    f"<base, vec> = {ip}, not tangent within {POINT_TOL * scale}")
        # exact re-orthogonalization against the base (P v = v + <v,x> x)
        v = v + ip * x
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "_norm", None)

    @property
    def norm(self) -> float:
        if self._norm is None:
            object.__setattr__(
                self, "_norm",
                float(np.sqrt(max(_mink_x(self.vec, self.vec), 0.0))))
        return self._norm

    def scaled(self, c: float) -> "HTangent":
        out = _tangent_unchecked(self.base, c * self.vec)
        if self._norm is not None:
            object.__setattr__(out, "_norm", abs(c) * self._norm)
        return out

    def __repr__(self):
        return f"HTangent(base x0={self.base.coords[0]:.4f}, |v|={self.norm:.6f})"


def _point_unchecked(coords: np.ndarray, q: float | None = None) -> HPoint:
    """Wrap already-normalized upper-sheet coordinates without re-validation."""
    out = HPoint.__new__(HPoint)
    if coords.flags.writeable:
        coords = coords.copy()
        coords.flags.writeable = False
    object.__setattr__(out, "coords", coords)
    object.__setattr__(out, "_q", q)
    return out


def _point_far_checked(p: np.ndarray) -> HPoint:
    """``_point_unchecked``, refusing a point past x_0 = cosh(17) that dist would."""
    q = _mink_x(p, p) if p[0] > _COSH_17 else None
    if q is not None and not q <= -0.5:
        raise RangeLimitError("point fails dist's test in double precision")
    return _point_unchecked(p, q)


def _tangent_unchecked(base: HPoint, vec: np.ndarray) -> HTangent:
    """Wrap an already-projected tangent vector without re-validation."""
    out = HTangent.__new__(HTangent)
    vec = np.asarray(vec, dtype=float)
    if vec.flags.writeable:
        vec = vec.copy()
        vec.flags.writeable = False
    object.__setattr__(out, "base", base)
    object.__setattr__(out, "vec", vec)
    object.__setattr__(out, "_norm", None)
    return out


def base_point(d: int) -> HPoint:
    """The reference point e_0 of H^d."""
    c = np.zeros(d + 1)
    c[0] = 1.0
    return HPoint(c)


def frame_at_base(d: int) -> list[HTangent]:
    """Coordinate orthonormal frame e_1..e_d at the reference point."""
    x = base_point(d)
    frame = []
    for i in range(1, d + 1):
        v = np.zeros(d + 1)
        v[i] = 1.0
        frame.append(HTangent(x, v))
    return frame


def _stable_acosh(u: float) -> float:
    t = u - 1.0
    if t < _ACOSH_SERIES_CUTOFF:
        return float(np.sqrt(2.0 * max(t, 0.0)))
    return float(np.log(u + np.sqrt(t * (u + 1.0))))


def _dist_coords(x: np.ndarray, y: np.ndarray,
                 qx: float | None = None, qy: float | None = None) -> float:
    """Distance of two hyperboloid coordinate vectors; ``qx``/``qy`` are their
    measured Minkowski squares when the caller already has them."""
    # nearby points: the chord 4 sinh^2(d/2) = <x-y, x-y> subtracts the large
    # coordinates before any product forms, which keeps full precision at any
    # radius from the chart center (negative values are coincidence noise)
    delta = x - y
    c2 = _mink_x(delta, delta)
    if qx is None:
        qx = _mink_x(x, x)
    if qy is None:
        qy = _mink_x(y, y)
    if c2 <= 0.25:
        if qx > -0.5 or qy > -0.5:
            raise GeometryViolation("operands are not hyperboloid points")
        return 2.0 * float(np.arcsinh(0.5 * np.sqrt(max(c2, 0.0))))
    # far points: normalize by the measured Minkowski norms, which cancels the
    # radial storage defect of far points (the dominant float64 error)
    if qx >= 0.0 or qy >= 0.0:
        raise GeometryViolation("operands are not hyperboloid points")
    u = -_mink_x(x, y) / np.sqrt(qx * qy)
    if u < 1.0 - 1e-8:
        raise GeometryViolation(f"-<x,y> = {u} < 1: operands are not hyperboloid points")
    return _stable_acosh(max(u, 1.0))


def dist(x: HPoint, y: HPoint) -> float:
    """Geodesic distance arccosh(-<x,y>), stabilized near coincident points."""
    if x.d != y.d:
        raise DimensionMismatch("points live in different dimensions")
    return _dist_coords(x.coords, y.coords, x.mnorm2, y.mnorm2)


def exp(x: HPoint, v: HTangent) -> HPoint:
    """Exponential map cosh(|v|) x + sinh(|v|)/|v| v, re-projected.

    Steps longer than 2 are flowed in segments: the single-shot formula forms
    the endpoint as a cancellation of cosh(|v|)-size terms even when the
    endpoint is near the chart center, while segment coordinates never exceed
    the path maximum.
    """
    _check_based(v, x)
    t = v.norm
    if t > R_MAX:
        raise RangeLimitError(f"tangent norm {t} exceeds R_MAX={R_MAX}")
    if t == 0.0:
        return x
    p = np.cosh(t) * x.coords + (np.sinh(t) / t) * v.vec
    if t > 2.0 and np.linalg.norm(p) < np.cosh(t) * np.linalg.norm(x.coords) / 8.0:
        # the single shot cancelled badly (path heads back through the chart
        # center); flow it in segments instead
        n = int(np.ceil(t / 2.0))
        h = t / n
        ch, sh = np.cosh(h), np.sinh(h)
        p = x.coords
        u = v.vec / t
        for _ in range(n):
            p, u = ch * p + sh * u, sh * p + ch * u
            qp = _mink_x(p, p)
            if qp >= 0.0:
                raise RangeLimitError(
                    "path left the double-precision representable sheet")
            p = p / np.sqrt(-qp)
            u = u + _mink_x(u, p) * p
            u = u / np.sqrt(_mink_x(u, u))
    q = _mink_x(p, p)
    if q >= 0.0 or p[0] <= 0.0:
        # beyond radius ~19 from the chart center the sheet is within one ulp
        # of the light cone and rounding can cross it
        raise RangeLimitError(
            "target point is too far from the chart center for double precision")
    return _point_far_checked(p / np.sqrt(-q))


def log(x: HPoint, y: HPoint) -> HTangent:
    """Inverse exponential map; |log_x(y)| equals dist(x, y) exactly."""
    return _log_at(x, y, dist(x, y))


def _log_at(x: HPoint, y: HPoint, D: float) -> HTangent:
    """``log(x, y)`` from a held D = dist(x, y) or dist(y, x): the compensated
    forms sum the same exact Dekker terms, so ``dist`` is symmetric to the bit."""
    if D == 0.0:
        return _tangent_unchecked(x, np.zeros_like(x.coords))
    u = np.cosh(D)
    w = y.coords - u * x.coords
    w = w + _mink_x(w, x.coords) * x.coords
    nw = np.sqrt(max(_mink_x(w, w), 0.0))
    if nw == 0.0:
        return _tangent_unchecked(x, np.zeros_like(x.coords))
    out = _tangent_unchecked(x, (D / nw) * w)
    object.__setattr__(out, "_norm", D)
    return out


def ptransport(x: HPoint, y: HPoint, u: HTangent) -> HTangent:
    """Parallel transport along the connecting geodesic (a Minkowski isometry).

    Components orthogonal to the geodesic direction are fixed; the component
    along it rotates in the (x, direction) plane.
    """
    _check_based(u, x)
    if x.d != y.d:
        raise DimensionMismatch("points live in different dimensions")
    alpha = np.cosh(dist(x, y))
    coef = _mink_x(y.coords, u.vec) / (1.0 + alpha)
    w = u.vec + coef * (x.coords + y.coords)
    w = w + _mink_x(w, y.coords) * y.coords
    return _tangent_unchecked(y, w)


def _check_based(v: HTangent, x: HPoint) -> None:
    if v.base is x:
        return
    if v.base.coords.shape != x.coords.shape or not np.allclose(
            v.base.coords, x.coords, atol=1e-12, rtol=0.0):
        raise GeometryViolation("tangent vector is not based at the given point")


def zeta(t) -> float | np.ndarray:
    """Curvature penalty t/tanh(t), extended by continuity to 1 at t=0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("zeta requires t >= 0")
    tiny = arr < 1e-8
    safe = np.where(tiny, 1.0, arr)
    out = np.where(tiny, 1.0 + arr * arr / 3.0, safe / np.tanh(safe))
    return float(out) if out.ndim == 0 else out


def right_triangle(r0: float, theta: float) -> tuple[float, float]:
    """Right hyperbolic triangle with hypotenuse r0 and acute angle theta.

    Returns (delta, r1): the leg adjacent to theta and the opposite leg,
    satisfying tanh(delta) = cos(theta) tanh(r0), sinh(r1) = sin(theta) sinh(r0)
    and cosh(r0) = cosh(r1) cosh(delta).
    """
    if not (np.isfinite(r0) and r0 > 0.0):
        raise DomainError("hypotenuse must be finite and positive")
    if not (0.0 < theta < np.pi / 2.0):
        raise DomainError("angle must lie strictly inside (0, pi/2)")
    delta = float(np.arctanh(np.cos(theta) * np.tanh(r0)))
    r1 = float(np.arcsinh(np.sin(theta) * np.sinh(r0)))
    return delta, r1


@dataclass(frozen=True, eq=False)
class TotallyGeodesicSub:
    """Totally geodesic submanifold S = M ∩ P, stored by a point and unit normals.

    ``point`` holds the coordinates of a point of S (the base of intrinsic
    coordinates), ``normals`` holds d-k spacelike unit rows spanning the
    Minkowski complement of P.  Distances read only the normals; the
    orthonormal frame of P is derived on first use (see ``basis``).
    """

    point: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float).copy()
        n = np.asarray(self.normals, dtype=float).reshape(-1, p.size).copy()
        p.flags.writeable = False
        n.flags.writeable = False
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normals", n)

    @cached_property
    def basis(self) -> np.ndarray:
        """k+1 Minkowski-orthonormal rows spanning P: ``point`` (timelike,
        <b,b> = -1) followed by k spacelike rows orthogonal to the normals."""
        b = np.vstack([self.point,
                       _mink_complement(np.vstack([self.point, self.normals]))])
        b.flags.writeable = False
        return b

    @property
    def dim(self) -> int:
        return self.ambient_dim - 1 - self.normals.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.point.size

    def base(self) -> HPoint:
        return HPoint(self.point)

    def normal_components(self, x: HPoint) -> np.ndarray:
        """Vector of Minkowski products <x, n_j> against the unit normals."""
        if self.normals.shape[0] == 0:
            return np.zeros(0)
        return np.array([_mink_x(n, x.coords) for n in self.normals])


def _mgs_minkowski(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt in the Minkowski form, timelike vector first.

    ``rows[0]`` must be timelike (a hyperboloid point).  Spacelike residuals
    below ``RANK_TOL`` are discarded; two projection passes control cancellation.
    """
    first = rows[0]
    basis = [first / np.sqrt(-_mink_x(first, first))]
    signs = [-1.0]
    for r in rows[1:]:
        v = r.astype(float).copy()
        for _ in range(2):
            for b, s in zip(basis, signs):
                v -= (_mink_x(v, b) / s) * b
        q = _mink_x(v, v)
        if q <= RANK_TOL * RANK_TOL * max(1.0, float(np.dot(r, r))):
            continue
        basis.append(v / np.sqrt(q))
        signs.append(1.0)
    return np.array(basis)


def _mink_complement(rows: np.ndarray) -> np.ndarray:
    """Spacelike orthonormal rows spanning the Minkowski complement of
    ``rows`` (which must include a timelike row)."""
    D = rows.shape[1]
    J = np.ones(D)
    J[0] = -1.0
    # <n, b> = 0 for all rows b  <=>  (rows * J) n = 0 in the Euclidean sense
    A = rows * J[None, :]
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    null = vt[rows.shape[0]:]
    out = []
    for r in null:
        v = r.copy()
        for b in out:
            v -= _mink_x(v, b) * b
        q = _mink_x(v, v)
        if q <= RANK_TOL * RANK_TOL:
            continue
        out.append(v / np.sqrt(q))
    return np.array(out).reshape(-1, D)


def gspan(points: list[HPoint], vectors: list[HTangent]) -> TotallyGeodesicSub:
    """Minimal totally geodesic submanifold through the points, tangent to the vectors.

    Equals M ∩ span(x_1..x_m, v_1..v_m); degenerate input (one point, no
    independent vectors) yields a 0-dimensional submanifold (a point).
    """
    if not points:
        raise DomainError("gspan needs at least one point")
    D = points[0].coords.size
    for p in points:
        if p.coords.size != D:
            raise DimensionMismatch("gspan inputs have inconsistent dimensions")
    for v in vectors:
        if v.vec.size != D:
            raise DimensionMismatch("gspan inputs have inconsistent dimensions")
    rows = np.vstack([p.coords for p in points]
                     + [v.vec for v in vectors if v.norm > 0.0]
                     ) if vectors else np.vstack([p.coords for p in points])
    basis = _mgs_minkowski(rows)
    return TotallyGeodesicSub(basis[0], _mink_complement(basis))


def sub_exp(S: TotallyGeodesicSub, c) -> HPoint:
    """Point of S from intrinsic tangent coordinates at its stored base point."""
    c = np.asarray(c, dtype=float)
    if c.size != S.dim:
        raise DimensionMismatch(f"expected {S.dim} intrinsic coordinates")
    rho = float(np.linalg.norm(c))
    if rho == 0.0:
        return S.base()
    if rho > R_MAX:
        raise RangeLimitError(f"intrinsic radius {rho} exceeds R_MAX={R_MAX}")
    p = np.cosh(rho) * S.point + (np.sinh(rho) / rho) * (c @ S.basis[1:])
    return HPoint(p / np.sqrt(-_mink(p, p)))


def _sub_dist_q(x: HPoint, S: TotallyGeodesicSub) -> tuple[float, np.ndarray]:
    """dist(x, S) = arcsinh |q|, and q, the normal components of x."""
    if x.coords.size != S.ambient_dim:
        raise DimensionMismatch("point/submanifold dimension mismatch")
    q = S.normal_components(x)
    return float(np.arcsinh(np.sqrt(float(np.dot(q, q))))), q


def sub_dist_value(x: HPoint, S: TotallyGeodesicSub) -> float:
    """Distance to a totally geodesic submanifold, without the foot."""
    return _sub_dist_q(x, S)[0]


def sub_dist(x: HPoint, S: TotallyGeodesicSub) -> tuple[float, HPoint]:
    """Distance to a totally geodesic submanifold and the nearest point on it.

    dist = arcsinh of the norm of the normal components of x; the foot is the
    Minkowski projection of x onto P rescaled back to the hyperboloid.
    """
    d, q = _sub_dist_q(x, S)
    if d == 0.0:
        return 0.0, x
    p = x.coords - q @ S.normals
    foot = _point_unchecked(p / np.sqrt(-_mink_x(p, p)))
    return d, foot


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Geodesic half-space {x : <normal, log_anchor(x)> >= 0}.

    The boundary is the totally geodesic hyperplane through the anchor
    orthogonal to the (unit) normal; membership is equivalent to
    <x, normal> >= 0 in ambient Minkowski coordinates.
    """

    anchor: HPoint
    normal: HTangent

    def __post_init__(self):
        _check_based(self.normal, self.anchor)
        n = self.normal.norm
        if abs(n - 1.0) > 1e-8:
            raise GeometryViolation("half-space normal must have unit norm")
        object.__setattr__(self, "normal", self.normal.scaled(1.0 / n))
        # ambient normal of the boundary hyperplane is the tangent normal itself
        object.__setattr__(self, "_boundary", TotallyGeodesicSub(
            self.anchor.coords, self.normal.vec[None, :]))

    @property
    def boundary(self) -> TotallyGeodesicSub:
        return self._boundary

    def margin(self, x: HPoint) -> float:
        """Signed ambient margin <x, normal>; nonnegative inside."""
        return _mink_x(x.coords, self.normal.vec)


def halfspace_dist(x: HPoint, L: HalfSpace) -> float:
    """Distance to a half-space: zero inside, distance to the boundary outside."""
    return _halfspace_dist_at(L.margin(x))


def _halfspace_dist_at(m: float) -> float:
    """``halfspace_dist`` from a held margin m; outside, arcsinh |m| is ``sub_dist_value``."""
    return 0.0 if m >= -1e-12 else float(np.arcsinh(-m))
