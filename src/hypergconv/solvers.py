"""Reference players: Polyak-step subgradient descent and fixed-step RGD.

The Polyak step is derived from the minimal-ball geometry: knowing
``f(x_k) - f*`` and a certified radius ``s_k`` of a ball around ``x_k``
containing the minimizer, the next iterate is the center of the smallest ball
containing the intersection of ``B(x_k, s_k)`` with the subgradient
half-space, which gives

    cos(theta_k) = (f(x_k) - f*) / (s_k |g_k|) = tanh(eta_k |g_k|) / tanh(s_k),
    sinh(s_{k+1}) = sin(theta_k) sinh(s_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hyperboloid import R_MAX, HPoint, exp
from .oracles import FnOracle, OracleSample

__all__ = [
    "CertificateError",
    "Trace",
    "polyak_sgd",
    "rgd",
]

# Violations of the Polyak cosine bound beyond this slack falsify the
# certified-radius invariant and raise instead of clamping.
COS_CLAMP_SLACK = 1e-12
GAP_SLACK = 1e-9


class CertificateError(RuntimeError):
    """The supplied f*/radius certificate is inconsistent with observed values."""


@dataclass
class Trace:
    """Ordered oracle answers along a run, with gaps when f* is known."""

    samples: list[OracleSample] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    radii: list[float] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)


def polyak_sgd(f: FnOracle, fstar: float, x0: HPoint, s0: float, T: int) -> Trace:
    """Subgradient descent with exact-f* Polyak step; stops early at the minimizer."""
    if s0 <= 0:
        raise CertificateError("initial radius must be positive")
    trace = Trace()
    x, s = x0, float(s0)
    for k in range(T):
        F, g = f.eval(x)
        gap = F - fstar
        trace.samples.append(OracleSample(F, x, g))
        trace.gaps.append(gap)
        trace.radii.append(s)
        if not (-gap <= GAP_SLACK * max(1.0, abs(fstar))):
            raise CertificateError(f"observed value {F} is below the supplied f* by {-gap}")
        gnorm = g.norm
        if not (gnorm <= np.finfo(float).max):  # NaN included
            raise CertificateError(f"subgradient norm {gnorm} at step {k} is not finite")
        if gap <= 0.0 or gnorm == 0.0 or k == T - 1:
            break
        # the certified-cosine noise floor grows with the coordinate scale
        # cosh(s); only violations beyond it falsify the certificate
        slack = max(COS_CLAMP_SLACK, 64.0 * np.finfo(float).eps * np.cosh(min(s, R_MAX)) ** 2)
        eta_g, s = map(float, _polyak_step(np, gap, gnorm, s, slack))
        trace.step_lengths.append(eta_g)
        x = exp(x, g.scaled(-eta_g / gnorm))
    return trace


def _polyak_step(ar, gap, gnorm, s, slack):
    """(step length, next certified radius) of one Polyak step in ``ar``, the
    ``numpy`` module or the ``mpmath`` context ``mp``; a cosine past
    ``1 + slack`` falsifies the certificate, and one within it is clamped."""
    if s <= 0:
        raise CertificateError("certified radius hit zero with a positive gap")
    c = gap / (s * gnorm)
    if not (c <= 1 + slack):
        raise CertificateError(f"cos(theta)={c} > 1: f* or the radius certificate is wrong")
    c = min(c, 1)
    return ar.atanh(c * ar.tanh(s)), ar.asinh(ar.sqrt(max(1 - c * c, 0)) * ar.sinh(s))


def rgd(f: FnOracle, step: float, x0: HPoint, T: int) -> Trace:
    """Fixed-step gradient descent x_{k+1} = exp_{x_k}(-step g_k)."""
    trace = Trace()
    x = x0
    for _ in range(T):
        F, g = f.eval(x)
        trace.samples.append(OracleSample(F, x, g))
        if f.fmin is not None:
            trace.gaps.append(F - f.fmin)
        x = exp(x, g.scaled(-step))
    return trace
