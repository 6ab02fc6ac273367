"""Independent oracles used only by tests.

The feasibility oracle is a quadratic-penalty descent: minimize the summed
squared constraint violations over the support coordinates with a
derivative-free simplex method from several starts.  It shares no code
with the projection-based solver it is used to cross-examine.

``reference_feasible`` is the averaged-projection loop of ``feasible`` in
its earlier, allocation-heavy form (``np.mean``, ``np.full``, ``np.clip``,
fresh arrays for every sum), with no dual bound: it says "infeasible" only
when the iteration stagnates.  The library's loop must reproduce every
"feasible" outcome of it bit for bit, and may end a call that is not
feasible earlier.  ``reference_project_lp_ball`` is the projection before
its scale-safe fallbacks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from stablab.distance import dist_linf_to_lp_ball
from stablab.dual_search import MAX_ITER, FEAS_TOL, DualInstance, FeasibilityOutcome, _certify
from stablab.grid import GridFunction
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


def reference_graph_step(inst: DualInstance, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    T, Ts = inst.appliers()
    u = v + T(w)
    ker = np.full(u.size, u.mean())
    if inst.Tstar.kind == "hilbert":
        top = 0.5 * (u[0::2].mean() - u[1::2].mean())
        ker[0::2] += top
        ker[1::2] -= top
    return 0.5 * (u + ker), 0.5 * Ts(u)


def reference_project_lp_ball(values: np.ndarray, radius: float, p: float) -> np.ndarray:
    n = values.size
    if radius <= 0.0:
        return np.zeros(n)
    p = float(p)
    if p == 2.0:
        size = math.sqrt(float(np.mean(values * values)))
        if size <= radius:
            return values.copy()
        return values * (radius / size)
    cap = n * radius**p
    av = np.abs(values)
    if float(np.sum(av**p)) <= cap:
        return values.copy()

    def shrunk(mu: float) -> np.ndarray:
        lo = np.zeros(n)
        hi = av.copy()
        for _ in range(60):
            midv = 0.5 * (lo + hi)
            too_big = midv + mu * p * midv ** (p - 1.0) > av
            hi = np.where(too_big, midv, hi)
            lo = np.where(too_big, lo, midv)
        return 0.5 * (lo + hi)

    mu_hi = 1.0
    for _ in range(200):
        if float(np.sum(shrunk(mu_hi) ** p)) <= cap:
            break
        mu_hi *= 2.0
    mu_lo = 0.0
    for _ in range(80):
        mu = 0.5 * (mu_lo + mu_hi)
        if float(np.sum(shrunk(mu) ** p)) <= cap:
            mu_hi = mu
        else:
            mu_lo = mu
    y = shrunk(mu_hi)
    total = float(np.sum(y**p))
    if total > cap and total > 0:
        y *= (cap / total) ** (1.0 / p)  # land exactly inside
    return np.sign(values) * y


def _clamp_box(values: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.clip(values, center - radius, center + radius)


def reference_feasible(
    inst: DualInstance,
    c: float,
    max_iter: int = MAX_ITER,
    tol: float = FEAS_TOL,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
) -> FeasibilityOutcome:
    c = float(c)
    fv = inst.f.values
    sup_mask = None if inst.support is None else inst.support.membership
    if inst.r == 0.0:
        out = _certify(inst, c, fv, inst.Tstar_f.values)
        status = "feasible" if out <= tol else "infeasible"
        return FeasibilityOutcome(status, inst.f if out <= tol else None, 0, max(out, 0.0))

    bound_p = c * inst.s
    bound_f = c * inst.r
    bound_T = c * (inst.t + inst.r)
    Ts = inst.apply_tstar

    if x0 is None:
        v = dist_linf_to_lp_ball(inst.f, inst.s, inst.p).minimizer.values
        if sup_mask is not None:
            v = np.where(sup_mask, v, 0.0)
        w = Ts(v)
    else:
        v, w = x0[0].copy(), x0[1].copy()

    best_res = math.inf
    best_iter = 0
    scale = max(1.0, float(np.abs(fv).max()))
    for k in range(1, max_iter + 1):
        vg, wg = reference_graph_step(inst, v, w)
        if k % 5 == 1:
            cand = vg if sup_mask is None else np.where(sup_mask, vg, 0.0)
            res = _certify(inst, c, cand, Ts(cand))
            if res <= tol:
                return FeasibilityOutcome("feasible", GridFunction(cand), k, max(res, 0.0))
            if res < best_res * (1.0 - 1e-3):
                best_res = res
                best_iter = k
            elif k - best_iter > 300 and k > 400:
                return FeasibilityOutcome("infeasible", None, k, best_res)

        p1 = reference_project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
        p2 = _clamp_box(v, fv, bound_f)
        p3 = _clamp_box(w, inst.Tstar_f.values, bound_T)
        v_new = (p1 + p2 + v + vg) * 0.25
        w_new = (w + w + p3 + wg) * 0.25
        move = max(float(np.abs(v_new - v).max()), float(np.abs(w_new - w).max()))
        v, w = v_new, w_new
        if move <= 1e-13 * scale:
            return FeasibilityOutcome("infeasible", None, k, best_res)
    return FeasibilityOutcome("inconclusive", None, max_iter, best_res)
