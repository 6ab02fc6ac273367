"""Independent oracles used only by tests.

``brute_force_distance`` computes both distance functionals of
``stablab.distance`` without their threshold structure: a dense zooming
lattice for n <= 3 and a generic convex program (SLSQP) for n <= 8.

The feasibility oracle is a quadratic-penalty descent: minimize the summed
squared constraint violations over the support coordinates with a
derivative-free simplex method from several starts.  It shares no code
with the projection-based solver it is used to cross-examine.

``reference_feasible`` is the averaged-projection loop of ``feasible`` in
its earlier, allocation-heavy form (``np.mean``, ``np.full``, ``np.clip``,
fresh arrays for every sum), with no dual bound: it says "infeasible" only
when the iteration stagnates, and every outcome carries the bound 0.0.  Like
``feasible``, it reads ``MAX_ITER`` and ``FEAS_TOL`` from
``stablab.dual_search`` at call time, so a test shortens both loops' budget
by monkeypatching one name.  The library's loop must reproduce every
"feasible" outcome of it bit for bit, and may end a call that is not
feasible earlier.  ``reference_project_lp_ball`` is the projection's earlier
direct path for p != 2: a linear bisection on the multiplier, with no
rescaling, so it is a reference at unit scale only.

``unfused_feasible`` and ``unfused_graph_step`` are verbatim copies of the
extrapolated loop of ``feasible`` and of ``DualInstance.graph_step`` before
the loop moved onto stacked buffers: v and w as separate arrays, fresh arrays
for the graph projection and every update, and the step's size taken over v
and w apart.  They call the library's ``_measure``, ``_dual_bound`` and
``project_lp_ball`` and read its constants at call time.  The stacked loop must
reproduce every outcome of them bit for bit wherever norm(f, inf) >= 1.

``reference_dist_l1_to_lp_ball`` and ``reference_dist_linf_to_lp_ball`` are
verbatim copies of the earlier distance solvers, which bisected the clip and
shrink levels with an absolute stopping width (``_reference_bisect``).  The
library's exact solves must agree with them to within that width.

``reference_cz_cubes`` is the stopping-time selection of ``cz_decompose`` in
its earlier form: a Python stack that visits the dyadic nodes one at a time,
root first, and stops at the first node whose mean of |f| exceeds the level.
The library's level-by-level array pass must select the same cubes in the
same order.  ``reference_cz_parts`` is the earlier assembly that followed that
selection: a second walk over the cubes that sets each one's good part with a
per-slice mean and unions its dilation into omega.  Its body is unchanged but
for the two ``GridSet`` helpers it called (the empty set and the union), here
spelled with membership arrays, and it returns the three parts alone.  The
library's single pass must reproduce the good and bad parts and omega bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from stablab.distance import (
    BISECTION_TOL,
    DistanceResult,
    _check_finite_p,
    _check_s,
    _hard_clip,
    _soft_threshold,
    dist_linf_to_lp_ball,
)
from stablab import dual_search
from stablab.dual_search import DualInstance, FeasibilityOutcome
from stablab.cz import DILATION
from stablab.grid import DyadicInterval, GridFunction, GridSet, dilate_interval, dyadic_means, norm, power_mean
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


def _reference_bisect(low_side, av: np.ndarray, s: float) -> tuple[float, float]:
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


def reference_dist_l1_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
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
    tau, _ = _reference_bisect(lambda a, r, t: power_mean(np.minimum(a, t), p) <= r, av, s)
    g = GridFunction(_hard_clip(f.values, tau))
    value = float(np.mean(np.maximum(av - tau, 0.0)))
    return DistanceResult(value, g, s, p, 1.0, tau)


def reference_dist_linf_to_lp_ball(f: GridFunction, s: float, p) -> DistanceResult:
    """Sup-norm distance from f to the ball of radius s in L^p, 1 < p < inf.

    Feasibility of the soft threshold is monotone nonincreasing in eps;
    bisection returns the smallest feasible eps within tolerance.
    """
    s = _check_s(s)
    p = _check_finite_p(p)
    av = np.abs(f.values)
    if norm(f, p) <= s:
        return DistanceResult(0.0, f, s, p, math.inf, 0.0)
    _, eps = _reference_bisect(lambda a, r, t: power_mean(np.maximum(a - t, 0.0), p) > r, av, s)
    g = GridFunction(_soft_threshold(f.values, eps))
    return DistanceResult(eps, g, s, p, math.inf, eps)


def reference_cz_cubes(f: GridFunction, level: float) -> tuple[DyadicInterval, ...]:
    abs_means = dyadic_means(np.abs(f.values))
    max_level = len(abs_means) - 1
    cubes: list[DyadicInterval] = []
    stack = [(0, 0)]
    while stack:
        lev, idx = stack.pop()
        if abs_means[lev][idx] > level:
            cubes.append(DyadicInterval(lev, idx))
        elif lev < max_level:
            # right child pushed first so cubes come out left to right
            stack.append((lev + 1, 2 * idx + 1))
            stack.append((lev + 1, 2 * idx))
    return tuple(cubes)


def reference_cz_parts(
    f: GridFunction, cubes: tuple[DyadicInterval, ...]
) -> tuple[GridFunction, GridFunction, GridSet]:
    """(good, bad, omega) of the decomposition of f on the given cubes."""
    n = f.n
    good = f.values.copy()
    omega = GridSet(np.zeros(n, dtype=bool))
    for q in cubes:
        sl = q.cell_slice(n)
        good[sl] = f.values[sl].mean()
        omega = GridSet(omega.membership | dilate_interval(q, DILATION, n).membership)
    bad = f.values - good
    return GridFunction(good), GridFunction(bad), omega


def _clamp_box(values: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.clip(values, center - radius, center + radius)


def _certify(inst: DualInstance, c: float, v_values: np.ndarray, Tsv: np.ndarray) -> float:
    """Maximum relative constraint violation of v at constant c (<= 0 is feasible)."""
    dust = dual_search._ABS_DUST * inst.scale
    viol = []
    bound_p = c * inst.s
    size = power_mean(np.abs(v_values), inst.p)
    viol.append((size - bound_p - dust) / max(bound_p, dust))
    bound_f = c * inst.r
    viol.append((float(np.abs(inst.f.values - v_values).max()) - bound_f - dust) / max(bound_f, dust))
    bound_T = c * (inst.t + inst.r)
    viol.append((float(np.abs(inst.Tstar_f.values - Tsv).max()) - bound_T - dust) / max(bound_T, dust))
    return max(viol)


def reference_feasible(inst: DualInstance, c: float, x0: np.ndarray | None = None) -> FeasibilityOutcome:
    c = float(c)
    max_iter, tol = dual_search.MAX_ITER, dual_search.FEAS_TOL
    fv = inst.f.values
    sup_mask = None if inst.support is None else inst.support.membership
    if inst.r == 0.0:
        out = _certify(inst, c, fv, inst.Tstar_f.values)
        status = "feasible" if out <= tol else "infeasible"
        return FeasibilityOutcome(status, inst.f if out <= tol else None, 0, 0.0)

    bound_p = c * inst.s
    bound_f = c * inst.r
    bound_T = c * (inst.t + inst.r)
    Ts = inst.apply_tstar

    if x0 is None:
        v = dist_linf_to_lp_ball(inst.f, inst.s, inst.p).minimizer.values
        if sup_mask is not None:
            v = np.where(sup_mask, v, 0.0)
    else:
        v = x0.copy()
    w = Ts(v)

    best_res = math.inf
    best_iter = 0
    scale = max(1.0, float(np.abs(fv).max()))
    for k in range(1, max_iter + 1):
        vg, wg = reference_graph_step(inst, v, w)
        if k % 5 == 1:
            cand = vg if sup_mask is None else np.where(sup_mask, vg, 0.0)
            res = _certify(inst, c, cand, Ts(cand))
            if res <= tol:
                return FeasibilityOutcome("feasible", GridFunction(cand), k, 0.0)
            if res < best_res * (1.0 - 1e-3):
                best_res = res
                best_iter = k
            elif k - best_iter > 300 and k > 400:
                return FeasibilityOutcome("infeasible", None, k, 0.0)

        p1 = reference_project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
        p2 = _clamp_box(v, fv, bound_f)
        p3 = _clamp_box(w, inst.Tstar_f.values, bound_T)
        v_new = (p1 + p2 + v + vg) * 0.25
        w_new = (w + w + p3 + wg) * 0.25
        move = max(float(np.abs(v_new - v).max()), float(np.abs(w_new - w).max()))
        v, w = v_new, w_new
        if move <= 1e-13 * scale:
            return FeasibilityOutcome("infeasible", None, k, 0.0)
    return FeasibilityOutcome("inconclusive", None, max_iter, 0.0)


def unfused_graph_step(inst: DualInstance, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    T, Ts = inst.appliers()
    u = v + T(w)
    # add the kernel part of u: its mean, plus its alternating top mode for hilbert
    m = u.sum() / u.size
    if inst.Tstar.kind == "hilbert":
        even, odd = u[0::2], u[1::2]
        top = 0.5 * (even.sum() / even.size - odd.sum() / odd.size)
        vg = np.empty_like(u)
        np.add(even, m + top, out=vg[0::2])
        np.add(odd, m - top, out=vg[1::2])
    else:
        vg = u + m
    vg *= 0.5
    wg = Ts(u)
    wg *= 0.5
    return vg, wg


def unfused_feasible(inst: DualInstance, c: float, x0: np.ndarray | None = None) -> FeasibilityOutcome:
    MAX_ITER, FEAS_TOL = dual_search.MAX_ITER, dual_search.FEAS_TOL
    _ABS_DUST, EXTRAPOLATION = dual_search._ABS_DUST, dual_search.EXTRAPOLATION
    _measure, _dual_bound, project_lp_ball = dual_search._measure, dual_search._dual_bound, dual_search.project_lp_ball
    c = float(c)
    if not c > 0:
        raise ValueError(f"constant must be positive, got {c}")
    fv = inst.f.values
    sup_mask = None if inst.support is None else inst.support.membership

    # r = 0 pins v = f exactly; only the p-ball constraint can still bind.
    if inst.r == 0.0:
        ok = _measure(inst, c, fv)[0] <= FEAS_TOL
        return FeasibilityOutcome("feasible" if ok else "infeasible", inst.f if ok else None, 0, 0.0)

    bound_p = c * inst.s
    bound_f = c * inst.r
    bound_T = c * (inst.t + inst.r)
    tsf = inst.Tstar_f.values
    # the two sup-norm boxes, and scratch for their clamps (np.clip's arithmetic on finite input)
    lo_f, hi_f = fv - bound_f, fv + bound_f
    lo_T, hi_T = tsf - bound_T, tsf + bound_T
    p2, p3 = np.empty_like(fv), np.empty_like(tsf)
    Ts = inst.apply_tstar
    v = inst.v0.values if x0 is None else x0
    w = Ts(v)

    # _measure accepts v at c only if v meets all three constraints at c_accept, so a
    # weak-duality bound above c_accept (with a rounding margin) rules out any later candidate
    c_accept = (1.0 + FEAS_TOL) * (c + _ABS_DUST * inst.scale / min(inst.s, inst.r, inst.t + inst.r))
    c_accept *= 1.0 + 1e-9

    def witness(x: np.ndarray, k: int) -> tuple[float, FeasibilityOutcome | None]:
        """The direct check of x masked to E: its violation, and the "feasible" outcome if it passes."""
        cand = x if sup_mask is None else np.where(sup_mask, x, 0.0)
        res = _measure(inst, c, cand)[0]
        if not res <= FEAS_TOL:
            return res, None
        return res, FeasibilityOutcome("feasible", GridFunction(cand), k, best_bound)

    best_bound = 0.0
    best_res = math.inf
    best_iter = 0
    for k in range(1, MAX_ITER + 1):
        vg, wg = unfused_graph_step(inst, v, w)
        # the box displacements p2 - v and p3 - w, which are also the box normals
        np.minimum(np.maximum(v, lo_f, out=p2), hi_f, out=p2)
        np.minimum(np.maximum(w, lo_T, out=p3), hi_T, out=p3)
        p2 -= v
        p3 -= w
        if k % 5 == 1:
            res, found = witness(vg, k)
            if found is not None:
                return found
            if res < best_res * (1.0 - 1e-3):
                best_res = res
                best_iter = k
            elif k - best_iter > 300 and k > 400:
                return FeasibilityOutcome("infeasible", None, k, best_bound)
            # the box normals of the current iterate as the dual pair
            bound = _dual_bound(inst, p2, p3)
            best_bound = max(best_bound, bound)
            if bound > c_accept:
                return FeasibilityOutcome("infeasible", None, k, best_bound)

        # the displacements d_i to the p-ball (p1 - v, 0), the f-box (p2 - v, 0),
        # the T*-box (0, p3 - w) and the graph (vg - v, wg - w), in place
        d1 = project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
        d1 -= v
        vg -= v
        wg -= w
        spread = float(d1 @ d1 + p2 @ p2 + p3 @ p3 + vg @ vg + wg @ wg)  # 4 mean |d_i|^2
        dv = d1
        dv += p2
        dv += vg
        dw = np.add(p3, wg, out=p3)
        mean_sq = float(dv @ dv + dw @ dw)  # 16 |d|^2, with d = (dv, dw) / 4
        # EXTRAPOLATION * L * d = EXTRAPOLATION * (spread / mean_sq) * (dv, dw)
        step = EXTRAPOLATION * spread / mean_sq if mean_sq > 0.0 else 0.0
        dv *= step
        dw *= step
        move = float(max(np.abs(dv).max(), np.abs(dw).max()))
        v = v + dv
        w = w + dw
        if move <= 1e-13 * inst.scale:
            # every projection agrees at a fixed point: x itself may be the witness
            return witness(v, k)[1] or FeasibilityOutcome("infeasible", None, k, best_bound)
    return FeasibilityOutcome("inconclusive", None, MAX_ITER, best_bound)


# ---------------------------------------------------------------------------
# Brute-force oracle.  Deliberately ignorant of the threshold structure:
# a dense zooming lattice for n <= 3, a generic convex program otherwise.
# It certifies the closed-form solvers of stablab.distance.
# ---------------------------------------------------------------------------

ORACLE_MAX_N = 8


class ScaleError(ValueError):
    """Raised when the brute-force oracle is asked for a grid it cannot afford."""


def brute_force_distance(f: GridFunction, s: float, p, ambient) -> float:
    s = _check_s(s)
    p = _check_finite_p(p)
    ambient = float(ambient)
    if f.n > ORACLE_MAX_N:
        raise ScaleError(f"oracle supports n <= {ORACLE_MAX_N}, got {f.n}")
    if ambient not in (1.0,) and not math.isinf(ambient):
        raise ValueError(f"ambient exponent must be 1 or inf, got {ambient}")
    if s == 0.0:
        return norm(f, ambient)
    if norm(f, p) <= s:
        return 0.0
    best = _nlp_distance(f.values, s, p, ambient)
    if f.n <= 3:
        # both paths report objective values at feasible points, so each is
        # an upper estimate and the smaller one is the sharper oracle
        best = min(best, _lattice_distance(f.values, s, p, ambient))
    return best


def _ambient_norm(diff: np.ndarray, ambient: float) -> float:
    if math.isinf(ambient):
        return float(np.abs(diff).max())
    return float(np.abs(diff).mean())


def _lattice_distance(fv: np.ndarray, s: float, p: float, ambient: float) -> float:
    """Dense search over minimizer coordinates with an edge-aware zoom.

    The window recenters on the best feasible lattice point each round and
    shrinks only while that point stays interior, so the search can track an
    optimum sitting on the ball boundary instead of collapsing early.
    """
    n = fv.size
    radius = s * n ** (1.0 / p)  # |g_i| can never usefully exceed this
    centers = np.zeros(n)
    width = max(radius, float(np.abs(fv).max()))
    best = _ambient_norm(fv, ambient)
    points_per_axis = 17
    for _ in range(80):
        axes = [np.linspace(c - width, c + width, points_per_axis) for c in centers]
        grids = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in grids], axis=-1)
        feas = np.mean(np.abs(cand) ** p, axis=1) ** (1.0 / p) <= s
        cand = cand[feas]  # the window always contains its feasible center
        if math.isinf(ambient):
            vals = np.abs(cand - fv).max(axis=1)
        else:
            vals = np.abs(cand - fv).mean(axis=1)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        on_edge = np.any(np.abs(np.abs(cand[k] - centers) - width) < width / points_per_axis)
        centers = cand[k]
        if not on_edge:
            width *= 0.45
        if width < 1e-9 * max(1.0, radius):
            break
    return best


def _nlp_distance(fv: np.ndarray, s: float, p: float, ambient: float) -> float:
    """Generic convex descent (SLSQP on an epigraph form) with restarts."""
    n = fv.size
    ball = {
        "type": "ineq",
        "fun": lambda x: s**p - np.mean(np.abs(x[:n]) ** p),
        "jac": lambda x: np.concatenate(
            [-(p / n) * np.abs(x[:n]) ** (p - 1) * np.sign(x[:n]), np.zeros(x.size - n)]
        ),
    }
    if math.isinf(ambient):
        # minimize z subject to |f_i - g_i| <= z
        def objective(x):
            return x[n]

        def objective_jac(x):
            grad = np.zeros(n + 1)
            grad[n] = 1.0
            return grad

        cons = [ball]
        for i in range(n):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, i=i: x[n] - (fv[i] - x[i])),
                    "jac": (lambda x, i=i: _e(n + 1, i, 1.0, n)),
                }
            )
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, i=i: x[n] + (fv[i] - x[i])),
                    "jac": (lambda x, i=i: _e(n + 1, i, -1.0, n)),
                }
            )
        dim = n + 1
    else:
        # minimize mean(t) subject to |f_i - g_i| <= t_i
        def objective(x):
            return np.mean(x[n:])

        def objective_jac(x):
            grad = np.zeros(2 * n)
            grad[n:] = 1.0 / n
            return grad

        cons = [ball]
        for i in range(n):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, i=i: x[n + i] - (fv[i] - x[i])),
                    "jac": (lambda x, i=i: _e(2 * n, i, 1.0, n + i)),
                }
            )
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, i=i: x[n + i] + (fv[i] - x[i])),
                    "jac": (lambda x, i=i: _e(2 * n, i, -1.0, n + i)),
                }
            )
        dim = 2 * n

    rng = np.random.default_rng(1234)
    shrink = min(1.0, s / max(np.mean(np.abs(fv) ** p) ** (1.0 / p), 1e-30))
    starts = [np.zeros(n), 0.99 * shrink * fv, 0.5 * shrink * fv]
    starts += [rng.normal(scale=max(s, 1e-3), size=n) for _ in range(3)]
    best = _ambient_norm(fv, ambient)
    for g0 in starts:
        gp = np.mean(np.abs(g0) ** p) ** (1.0 / p)
        if gp > s:
            g0 = g0 * (0.999 * s / gp)
        slack = np.abs(fv - g0)
        x0 = np.concatenate([g0, [slack.max()]]) if dim == n + 1 else np.concatenate([g0, slack])
        res = minimize(
            objective,
            x0,
            jac=objective_jac,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        g = res.x[:n]
        if np.mean(np.abs(g) ** p) ** (1.0 / p) <= s * (1 + 1e-9):
            best = min(best, _ambient_norm(fv - g, ambient))
    return best


def _e(size: int, i: int, sign: float, j: int) -> np.ndarray:
    grad = np.zeros(size)
    grad[i] = sign
    grad[j] = 1.0
    return grad
