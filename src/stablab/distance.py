"""Distance from a grid function to an L^p ball, with exact minimizers.

Two functionals are computed, both by bisection on a scalar threshold:

* distance in L^1 to the ball B_p(s): the optimal competitor is a hard
  clip of f at a uniform level tau, because minimizing
  |f_i - g_i| + mu |g_i|^p cell by cell gives g_i = sign(f_i) min(|f_i|, tau)
  with tau depending only on the multiplier mu;
* distance in L^inf to B_p(s): the cheapest way to shrink the p-norm while
  moving at most eps in sup norm is the soft threshold
  g_i = sign(f_i) (|f_i| - eps)_+, so the distance is the smallest feasible
  eps.

Both characterizations are cross-validated in the tests against a generic
convex solver that knows nothing about thresholds (``brute_force_distance``
in tests/oracles.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, norm, power_mean

__all__ = [
    "DistanceResult",
    "dist_l1_to_lp_ball",
    "dist_linf_to_lp_ball",
]

BISECTION_TOL = 1e-12
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class DistanceResult:
    """Distance value plus the minimizer that attains it.

    threshold is the clip level (ambient L^1) or the shrinkage level
    (ambient L^inf) that generates the minimizer.
    """

    value: float
    minimizer: GridFunction
    s: float
    p: float
    ambient: float
    threshold: float

    def to_json(self) -> str:
        def enc(x: float):
            return "inf" if math.isinf(x) else float(x)

        return json.dumps(
            {
                "value": float(self.value),
                "threshold": float(self.threshold),
                "s": float(self.s),
                "p": enc(self.p),
                "ambient": enc(self.ambient),
            }
        )


def _hard_clip(values: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(values) * np.minimum(np.abs(values), tau)


def _soft_threshold(values: np.ndarray, eps: float) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - eps, 0.0)


def _check_s(s: float) -> float:
    s = float(s)
    if not s >= 0:
        raise ValueError(f"ball radius must be nonnegative, got {s}")
    return s


def _check_finite_p(p) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"ball exponent must be finite and > 1, got {p}")
    return p


def _bisect(low_side, av: np.ndarray, s: float) -> tuple[float, float]:
    """Bracket [lo, hi] of [0, max av] around the threshold t at which the
    monotone test ``low_side(values, radius, t)`` turns from True to False.

    The search runs in units of min(1, max av), so its stopping width
    BISECTION_TOL is absolute above unit scale and relative below it; it
    also stops when lo and hi are adjacent floats.
    """
    unit = min(1.0, float(av.max()))
    au, su = av / unit, s / unit
    lo, hi = 0.0, float(au.max())
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if low_side(au, su, mid):
            lo = mid
        else:
            hi = mid
    return lo * unit, hi * unit


def dist_l1_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
    """L^1 distance from f to the ball of radius s in L^p, 1 < p < inf.

    The map tau -> norm(clip_tau f, p) is nondecreasing, so the active
    threshold is found by bisection; the returned threshold is the smallest
    one attaining the optimal value (the feasible end of the final bracket).
    """
    s = _check_s(s)
    p = _check_finite_p(p)
    av = np.abs(f.values)
    sup = float(av.max())
    if s == 0.0:
        g = GridFunction.zeros(f.n)
        return DistanceResult(norm(f, 1), g, s, p, 1.0, 0.0)
    if norm(f, p) <= s:
        return DistanceResult(0.0, f, s, p, 1.0, sup)
    tau, _ = _bisect(lambda a, r, t: power_mean(np.minimum(a, t), p) <= r, av, s)
    g = GridFunction(_hard_clip(f.values, tau))
    value = float(np.mean(np.maximum(av - tau, 0.0)))
    return DistanceResult(value, g, s, p, 1.0, tau)


def dist_linf_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
    """Sup-norm distance from f to the ball of radius s in L^p, 1 < p < inf.

    Feasibility of the soft threshold is monotone nonincreasing in eps;
    bisection returns the smallest feasible eps within tolerance.
    """
    s = _check_s(s)
    p = _check_finite_p(p)
    av = np.abs(f.values)
    if norm(f, p) <= s:
        return DistanceResult(0.0, f, s, p, math.inf, 0.0)
    _, eps = _bisect(lambda a, r, t: power_mean(np.maximum(a - t, 0.0), p) > r, av, s)
    g = GridFunction(_soft_threshold(f.values, eps))
    return DistanceResult(eps, g, s, p, math.inf, eps)

