"""Why g-convex interpolation is harder than convex interpolation.

Three points of an isoceles hyperbolic triangle pass all the first-order
necessary inequalities, yet no g-convex function matches them: convexity
along the altitude forces a value strictly above the max along the base,
because hyperbolic altitudes are shorter than cos(angle) predicts.
"""

import numpy as np

from hypergconv import dist
from hypergconv.interpolation import (
    InterpData, check_necessary, construct_sufficient, minimal_function,
    obstruction_certificate,
)
from hypergconv.oracles import OracleSample, SqDistToPoint
from hypergconv.sampling import make_rng, random_point_in_ball, random_unit_tangent
import hypergconv as hg

print("theta   necessary?   forced lower   allowed upper   obstructed?")
for theta in np.linspace(0.1, 1.4, 8):
    data, lower, upper = obstruction_certificate(float(theta))
    ok = check_necessary(data).ok
    print(f"{theta:5.2f}   {str(ok):10s}   {lower:12.6f}   {upper:13.1f}   {lower > upper}")

print("\n== when gradients are small the max construction interpolates ==")
rng = make_rng(4)
x0 = hg.base_point(3)
z = random_point_in_ball(rng, x0, 0.8)
src = SqDistToPoint(z)
items = []
for _ in range(5):
    p = random_point_in_ball(rng, z, 0.45)
    F, g = src.eval(p)
    items.append(OracleSample(F, p, g))
f = construct_sufficient(InterpData(items, mu=1.0))
errs = [abs(f.value(s.x) - s.F) for s in items]
print(f"reconstruction errors at the {len(items)} data points: max {max(errs):.1e}")

print("\n== the pointwise-minimal interpolant of a single datum ==")
y = random_point_in_ball(rng, x0, 1.0)
g = random_unit_tangent(rng, y).scaled(0.8)
x = random_point_in_ball(rng, x0, 1.5)
fmin, val = minimal_function(1.0, y, g, x)
target = 1.0 + hg.mink_inner(g.vec, hg.log(y, x).vec)
print(f"min over interpolants of f(x): {val:.9f} (forced value {target:.9f})")
