"""Distance from a grid function to an L^p ball, with exact minimizers.

Two functionals are computed, each from an exact scalar threshold:

* distance in L^1 to the ball B_p(s): the optimal competitor is a hard
  clip of f at a uniform level tau, because minimizing
  |f_i - g_i| + mu |g_i|^p cell by cell gives g_i = sign(f_i) min(|f_i|, tau)
  with tau depending only on the multiplier mu, and tau has a closed form
  once |f| is sorted;
* distance in L^inf to B_p(s): the cheapest way to shrink the p-norm while
  moving at most eps in sup norm is the soft threshold
  g_i = sign(f_i) (|f_i| - eps)_+, so the distance is the smallest feasible
  eps, the root of a convex decreasing map that Newton's method finds.

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

BISECTION_TOL = 1e-12  # no solve here bisects; perfbench/workloads.py reads it until the benchmark reads stability.DEGENERATE_TOL
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
    if not 0 <= s < math.inf:
        raise ValueError(f"ball radius must be nonnegative and finite, got {s}")
    return s


def _check_finite_p(p) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"ball exponent must be finite and > 1, got {p}")
    return p


def dist_l1_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
    """L^1 distance from f to the ball of radius s in L^p, 1 < p < inf.

    With the k largest |f| clipped, the clip level solves
    k tau^p + sum_{i > k} |f|_(i)^p = n s^p; the answer is the first k whose
    tau reaches the largest unclipped cell.  In units of s, tau lies in
    [1, n^(1/p)], so only cells that end up clipped can overflow.
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
    with np.errstate(over="ignore"):
        bp = (np.sort(av)[::-1] / s) ** p
        tail = np.append(np.cumsum(bp[:0:-1])[::-1], 0.0)  # sum of bp past the k-th cell
    tau_p = (f.n - tail) / np.arange(1, f.n + 1)
    k = int(np.argmax(tau_p >= np.append(bp[1:], 0.0)))
    tau = s * float(tau_p[k]) ** (1.0 / p)
    g = GridFunction(_hard_clip(f.values, tau))
    value = float(np.mean(np.maximum(av - tau, 0.0)))
    return DistanceResult(value, g, s, p, 1.0, tau)


def dist_linf_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
    """Sup-norm distance from f to the ball of radius s in L^p, 1 < p < inf.

    eps -> power_mean((|f| - eps)_+, p) is convex and decreasing, so Newton
    from eps = 0 rises monotonically to its root at s; it stops when a step
    no longer moves eps up.  The work runs in units of max |f|, and the step
    (g - s) / mean((x/g)^(p-1)) cannot overflow because x/g <= n^(1/p).
    """
    s = _check_s(s)
    p = _check_finite_p(p)
    av = np.abs(f.values)
    if norm(f, p) <= s:
        return DistanceResult(0.0, f, s, p, math.inf, 0.0)
    sup = float(av.max())
    if s == 0.0:
        return DistanceResult(sup, GridFunction.zeros(f.n), s, p, math.inf, sup)
    au, su, eps = av / sup, s / sup, 0.0
    while True:
        x = np.maximum(au - eps, 0.0)
        g = power_mean(x, p)
        if g == 0.0:  # eps has reached max |f| to rounding: every cell is shrunk to 0
            break
        new = eps + (g - su) / float(np.mean((x / g) ** (p - 1.0)))
        if not new > eps:  # a rounding overshoot of the root gets one step back
            eps = min(eps, new)
            break
        eps = new
    eps *= sup
    g = GridFunction(_soft_threshold(f.values, eps))
    return DistanceResult(eps, g, s, p, math.inf, eps)
