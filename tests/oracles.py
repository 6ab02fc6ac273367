"""Independent oracles used only by tests.

The feasibility oracle is a quadratic-penalty descent: minimize the summed
squared constraint violations over the support coordinates with a
derivative-free simplex method from several starts.  It shares no code
with the projection-based solver it is used to cross-examine.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from stablab.dual_search import DualInstance
from stablab.operators import as_matrix


def penalty_feasible(inst: DualInstance, c: float, tol: float = 1e-6) -> bool:
    """Verdict on whether the three constraint sets intersect at constant c."""
    fv = inst.f.values
    M = as_matrix(inst.Tstar)
    tsf = inst.Tstar_f.values
    n = fv.size
    if inst.support is not None:
        idx = np.nonzero(inst.support.membership)[0]
    else:
        idx = np.arange(n)

    bound_p = c * inst.s
    bound_f = c * inst.r
    bound_T = c * (inst.t + inst.r)

    def violations(z: np.ndarray) -> np.ndarray:
        v = np.zeros(n)
        v[idx] = z
        return np.array(
            [
                float(np.mean(np.abs(v) ** inst.p)) ** (1.0 / inst.p) - bound_p,
                float(np.abs(fv - v).max()) - bound_f,
                float(np.abs(tsf - M @ v).max()) - bound_T,
            ]
        )

    def penalty(z: np.ndarray) -> float:
        return float(np.sum(np.maximum(violations(z), 0.0) ** 2))

    scale = max(1.0, float(np.abs(fv).max()))
    rng = np.random.default_rng(2024)
    starts = [np.zeros(idx.size), fv[idx], 0.5 * fv[idx]]
    starts += [rng.normal(scale=0.3 * scale, size=idx.size) for _ in range(3)]
    best = np.inf
    for z0 in starts:
        res = minimize(
            penalty,
            z0,
            method="Nelder-Mead",
            options={"maxiter": 6000, "xatol": 1e-12, "fatol": 1e-16},
        )
        best = min(best, res.fun)
        if best <= (tol * scale) ** 2:
            return True
    return bool(best <= (tol * scale) ** 2)
