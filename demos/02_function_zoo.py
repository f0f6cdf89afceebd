"""The g-convex function families and their first-order oracles.

Every oracle returns (value, subgradient) pairs; the demo samples the
subgradient inequality, then smooths a kinked max of hyperplane distances
with the Moreau envelope and shows the sandwich and smoothness certificates.
"""

import numpy as np

import hypergconv as hg
from hypergconv.oracles import (
    MoreauParams, fn_dist_point, fn_dist_sub, fn_moreau, fn_pseudo_affine,
    fn_shifted_max, fn_sqdist_point, subgradient_gap, taper,
)
from hypergconv.sampling import make_rng, random_point_in_ball, random_unit_tangent

rng = make_rng(1)
d = 3
x0 = hg.base_point(d)
z = random_point_in_ball(rng, x0, 1.0)

print("== sampled subgradient inequality f(y) >= f(x) + <g, log_x(y)> ==")
anchor = random_point_in_ball(rng, x0, 1.0)
S = hg.HalfSpace(anchor, random_unit_tangent(rng, anchor)).boundary
zoo = {
    "distance to a point": fn_dist_point(z),
    "half squared distance": fn_sqdist_point(z),
    "distance to a hyperplane": fn_dist_sub(S, 0.3),
    "shifted max of the above": fn_shifted_max(
        [(fn_dist_point(z), 0.1), (fn_dist_sub(S, 0.0), 0.2)]),
}
for name, o in zoo.items():
    worst = min(subgradient_gap(o, random_point_in_ball(rng, x0, 2.0),
                                random_point_in_ball(rng, x0, 2.0))
                for _ in range(500))
    print(f"  {name:28s} min slack over 500 samples: {worst:+.2e}")

print("\nthe pseudo-affine <g, log_y(x)> is smooth but NOT g-convex:")
pa = fn_pseudo_affine(z, random_unit_tangent(rng, z))
print(f"  gconvex flag: {pa.gconvex}; Lipschitz = smoothness = {pa.lipschitz:.3f}")

print("\n== Moreau envelope of a kinked max of hyperplane distances ==")
lam = 0.05
planes = []
for c in (0.0, 0.1, 0.2):
    a = random_point_in_ball(rng, x0, 1.0)
    planes.append((fn_dist_sub(hg.HalfSpace(a, random_unit_tangent(rng, a)).boundary), c))
m = fn_shifted_max(planes)
env = fn_moreau(m, MoreauParams(lam))
print(f"smoothing width {lam}: envelope is 1/tanh(lam) = {env.smoothness:.1f}-smooth")
worst_lo, worst_hi = 0.0, 0.0
for _ in range(300):
    p = random_point_in_ball(rng, x0, 1.5)
    fv, ev = m.value(p), env.value(p)
    worst_hi = max(worst_hi, ev - fv)
    worst_lo = max(worst_lo, fv - lam - ev)
print(f"sandwich f - lam <= f_lam <= f: violations {worst_lo:.1e}, {worst_hi:.1e}")

print("\n== growth taper; zoo-validate checks u + D u' >= 0 and 2 u' + D u'' <= 0 ==")
for D in (0.4, 0.5, 0.6, 2.0, 50.0):
    u, du, d2u = taper(D, 1.0)
    print(f"  D={D:6.1f}: u={u:.6f} u'={du:+.3e} u''={d2u:+.3e}")
