"""Independent oracles used only by tests.

``brute_force_distance`` computes both distance functionals of
``stablab.distance`` without their threshold structure: a dense zooming
lattice for n <= 3 and a generic convex program (SLSQP) for n <= 8.

The feasibility oracle is a quadratic-penalty descent: minimize the summed
squared constraint violations over the support coordinates with a
derivative-free simplex method from several starts.  It shares no code
with the projection-based solver it is used to cross-examine.  ``certified``
is the direct check at c * (1 + FEAS_TOL), on a fresh ``_measure`` of the
witness, that the library's result reports.

``reference_feasible`` is the averaged-projection loop of ``feasible`` in
its earlier, allocation-heavy form (``np.mean``, ``np.full``, ``np.clip``,
fresh arrays for every sum), with no dual bound: it says "infeasible" only
when the iteration stagnates, and every outcome carries the bound 0.0.  A
"feasible" outcome carries the sizes its own check measured and T* of its
witness, and a warm start may pass T* x0 as ``w0``, as ``feasible`` takes
it.  Like ``feasible``, it reads ``MAX_ITER`` and ``FEAS_TOL`` from
``stablab.dual_search`` at call time, so a test shortens both loops' budget
by monkeypatching one name.  The library's loop must be feasible wherever
it is, with a certified witness, and end no later.
``reference_project_lp_ball`` is the projection's earlier
direct path for p != 2: a linear bisection on the multiplier, with no
rescaling, so it is a reference at unit scale only.

``unfused_feasible`` and ``unfused_graph_step`` restate the extrapolated
loop of ``feasible`` and ``DualInstance.graph_step`` off the stacked
buffers: v and w as separate arrays, fresh arrays for the graph projection
and every update, the step's size taken over v and w apart, and the
p = 2 ball displacement as alpha v.  Bits pin what they share with the
library: T* of v and w and their kernel sums are taken on a fresh stacked
copy of the pair, since a gemm row differs from a matvec in its last bits,
and each squared length is one dot product over the parts laid end to end.
Like ``feasible``, ``unfused_feasible`` takes a warm ``w0`` and
returns the sizes and T*v its direct check measured.  They call the
library's ``_measure``, ``_dual_bound`` and ``project_lp_ball`` and read its
constants at call time.  The stacked loop must
reproduce every outcome of them bit for bit wherever norm(f, inf) >= 1.

``two_matvec_feasible`` with ``two_matvec_graph_step`` and
``two_matvec_dual_bound``, and ``two_matvec_min_constant``, are verbatim
copies of the search before its graph step read T w off T*: each step
applied T to w and then T* to u = v + T w, the dual bound applied T, and
the bisection made its first call from the cold start instead of holding
it.  ``_two_matvec_appliers`` gives the (T, T*) pair the instance held
then, the dense one from a fresh ``as_matrix``.  The library's search must reach the same c*, c_lower and status to
1e-12 with no more iterations.

``reference_min_constant`` is a verbatim copy of ``min_constant`` before it
held a witness: it calls ``feasible`` at every midpoint, warm from the
last accepted witness, and lets ``feasible`` apply T* to it again.  It calls
the library's ``feasible``, ``_finish`` and ``norm``, and hands ``_finish``
the last accepted outcome, whose measured sizes it reads.  The library's search
must reach the same c*, c_lower and status with no more iterations.

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

``reference_bourgain_construct`` and ``reference_kclosed_redecompose`` are
verbatim copies of the two constructions as compositions of the public
functions: ``dist_l1_to_lp_ball``, ``cz_decompose`` and ``apply`` on
GridFunctions, with a GridFunction for every intermediate.  The one private
call they made, the clip level of T f, is spelled as the distance's value.
The library's constructions on raw arrays must give the same bytes and the
same reports, and raise the same exception with the same message.

``reference_dilate_interval`` is the library's former ``grid.dilate_interval``
as it was before the integer cell ranges of ``grid.dilated_cells``: it
compares each cell's float endpoints with the open dilated interval, shifted
by -1, 0 and 1 for the wrap.  ``dilated_cells`` must give the same cells,
and ``reference_cz_parts`` builds omega with the reference, so the cz tests
check the cell ranges against the float geometry.

``identity_block`` is the last block of identity rows ``as_matrix``
transforms, scaled; the pyramid tests feed it as a 2-D input, and the
references, which batch along axis 0, its transpose.

``reference_dyadic_means`` and ``reference_apply_haar`` are verbatim copies
of the former ``grid.dyadic_means`` and ``operators._apply_haar`` before both
moved onto one heap-ordered ``dyadic_pyramid``: a fresh array per level, and a
Haar synthesis that builds each level's sums in a new array from per-level
temporaries.  ``reference_apply_haar`` takes the signs per level, level l
holding 2^l of them, as the earlier spec stored them (``level_signs``).  The
pyramid must reproduce both bit for bit; the two cz references build their
means with ``reference_dyadic_means``.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np
from scipy.optimize import minimize

from stablab.distance import (
    BISECTION_TOL,
    DistanceResult,
    _check_finite_p,
    _check_s,
    _hard_clip,
    _soft_threshold,
    dist_l1_to_lp_ball,
    dist_linf_to_lp_ball,
)
from stablab import dual_search
from stablab.dual_search import DualInstance, FeasibilityOutcome
from stablab.cz import DILATION, ConsistencyError, CzDecomposition, cz_decompose
from stablab.grid import DyadicInterval, GridFunction, GridSet, mask, norm, power_mean
from stablab.operators import MATRIX_BLOCK, LinearOperatorSpec, adjoint, apply, apply_values, as_matrix
from stablab.stability import DEGENERATE_TOL, RedecompositionReport, StabilityReport, _guarded_ratio


def certified(inst: DualInstance, c: float, v: GridFunction) -> bool:
    """Direct, solver-independent constraint check at constant c * (1 + FEAS_TOL), on a fresh
    ``_measure`` of v: the check ``min_constant`` reports as its status."""
    return dual_search._measure(inst, c * (1.0 + dual_search.FEAS_TOL), v.values)[0] <= 0.0


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
    Ts = inst.apply_tstar
    u = v + inst.t_sign * Ts(w)
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
    g = GridFunction(_hard_clip(f.values, np.abs(f.values), tau))
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


def reference_dyadic_means(values: np.ndarray) -> list[np.ndarray]:
    """means[l][j] = mean of values over the dyadic interval (l, j), built from the cells up.

    The cells run along axis 0, so a 2-D array gives the means of each column.
    """
    levels = [values.astype(float)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(0.5 * (prev[0::2] + prev[1::2]))
    levels.reverse()
    return levels


def reference_level_signs(signs, n: int) -> tuple[np.ndarray, ...]:
    """The earlier spec's per-level signs: level l holds the 2^l signs after the first 2^l - 1."""
    flat = np.asarray(signs, dtype=float)
    return tuple(flat[(1 << lev) - 1 : (2 << lev) - 1] for lev in range(n.bit_length() - 1))


def _by_cell(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A per-cell array shaped to broadcast along axis 0 of ``values``."""
    return a.reshape(a.shape + (1,) * (values.ndim - 1))


def reference_apply_haar(values: np.ndarray, level_signs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pyramid evaluation of sum_Q eps_Q <f, h_Q> h_Q in O(n) per level."""
    means = reference_dyadic_means(values)
    out = np.zeros((1,) + values.shape[1:])
    for lev, eps in enumerate(level_signs):
        fine = means[lev + 1]
        half_diff = _by_cell(eps, fine) * (0.5 * (fine[0::2] - fine[1::2]))
        expanded = np.empty((2 << lev,) + values.shape[1:])
        expanded[0::2] = out + half_diff
        expanded[1::2] = out - half_diff
        out = expanded
    return out


def reference_dilate_interval(Q: DyadicInterval, factor: float, n: int) -> GridSet:
    """Cells meeting the open interval of length factor * |Q| centered at Q.

    The dilation wraps around the circle and saturates at the full circle
    once factor * |Q| >= 1.  A boundary cell is included exactly when it
    intersects the open dilated interval, so factor = 1 returns precisely
    the cells of Q.
    """
    factor = float(factor)
    if not factor >= 1.0:
        raise ValueError(f"dilation factor must be >= 1, got {factor}")
    length = factor * Q.length
    if length >= 1.0:
        return GridSet(np.ones(n, dtype=bool))
    center = (Q.index + 0.5) * Q.length
    lo = center - length / 2.0
    hi = center + length / 2.0
    edges = np.arange(n + 1) / n
    starts, stops = edges[:-1], edges[1:]
    member = np.zeros(n, dtype=bool)
    for shift in (-1.0, 0.0, 1.0):
        # cell [a, b) meets open (lo, hi) iff lo < b and a < hi, strictly
        member |= (lo + shift < stops) & (starts < hi + shift)
    return GridSet(member)


def identity_block(n: int, magnitude: float) -> np.ndarray:
    """The last block of identity rows as_matrix transforms, scaled by magnitude."""
    width = min(MATRIX_BLOCK, n)
    block = np.zeros((width, n))
    block[np.arange(width), np.arange(n - width, n)] = magnitude
    return block


def reference_cz_cubes(f: GridFunction, level: float) -> tuple[DyadicInterval, ...]:
    abs_means = reference_dyadic_means(np.abs(f.values))
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
        omega = GridSet(omega.membership | reference_dilate_interval(q, DILATION, n).membership)
    bad = f.values - good
    return GridFunction(good), GridFunction(bad), omega


def _reference_split_at_level(u0: GridFunction, a: float, b: float, p: float) -> tuple[float, CzDecomposition, bool]:
    if a > DEGENERATE_TOL and b > 0.0:
        with np.errstate(over="ignore"):  # a level beyond the doubles reads inf
            lam = float(b * np.float64(b / a) ** (1.0 / (p - 1.0)))
        if lam < np.inf:
            # a level that underflows to 0 lies, as the least double does, below every positive mean of |u0|
            d = cz_decompose(u0, lam or math.ulp(0.0))
            return lam, d, d.root_selected
    empty = GridSet(np.zeros(u0.n, dtype=bool))
    return 0.0, CzDecomposition(0.0, (), u0, GridFunction.zeros(u0.n), empty), True


def reference_bourgain_construct(
    f: GridFunction, T: LinearOperatorSpec, s: float, p
) -> tuple[GridFunction, StabilityReport]:
    s = float(s)
    if not 0 < s < np.inf:
        raise ValueError(f"ball radius must be positive and finite, got {s}")
    p = float(p)
    dist_f = dist_l1_to_lp_ball(f, s, p)
    u1 = dist_f.minimizer
    u0 = f - u1
    a = dist_f.value
    b = s
    Tf = apply(T, f)
    c = dist_l1_to_lp_ball(Tf, s, p).value

    lam, d, degenerate = _reference_split_at_level(u0, a, b, p)
    u = u1 + d.good
    h = d.bad

    resid_l1 = norm(h, 1)
    resid_T = norm(apply(T, h), 1) if h.values.any() else 0.0
    ratio_f, deg_f = _guarded_ratio(resid_l1, dist_f.value)
    ratio_T, deg_T = _guarded_ratio(resid_T, dist_f.value + c)
    ratio_p = norm(u, p) / s
    deg_p = not math.isfinite(ratio_p)
    report = StabilityReport(
        s=s, p=p, a=a, b=b, c=c,
        lam=lam,
        ratio_p=0.0 if deg_p else ratio_p,
        ratio_f=ratio_f,
        ratio_T=ratio_T,
        resid_l1=resid_l1,
        resid_T=resid_T,
        cube_count=len(d.cubes),
        omega_measure=d.omega.measure,
        degenerate=degenerate or deg_f or deg_T or deg_p,
    )
    return u, report


def reference_kclosed_redecompose(
    u: GridFunction,
    T: LinearOperatorSpec,
    split: tuple[GridFunction, GridFunction, GridFunction, GridFunction],
    p,
) -> tuple[tuple[GridFunction, GridFunction], tuple[GridFunction, GridFunction], RedecompositionReport]:
    p = float(p)
    u0, v0, u1, v1 = split
    Tu = apply(T, u)
    scale = max(1.0, norm(u, np.inf), norm(Tu, np.inf))
    if norm(u0 + u1 - u, np.inf) > 1e-9 * scale:
        raise ConsistencyError("u0 + u1 does not reproduce u")
    if norm(v0 + v1 - Tu, np.inf) > 1e-9 * scale:
        raise ConsistencyError("v0 + v1 does not reproduce T u")

    a = max(norm(u0, 1), norm(v0, 1))
    b = max(norm(u1, p), norm(v1, p))
    c = norm(v0, 1)

    lam, d, degenerate = _reference_split_at_level(u0, a, b, p)
    h = d.bad
    w = u1 + d.good
    Th = apply(T, h)
    Tw = apply(T, w)

    pprime = p / (p - 1.0)
    holder_lhs = norm(mask(Th, d.omega), 1)
    holder_rhs = c + d.omega.measure ** (1.0 / pprime) * (norm(v1, p) + norm(Tw, p))
    ratio_h, deg_h = _guarded_ratio(norm(h, 1), a)
    ratio_w, deg_w = _guarded_ratio(norm(w, p), b)
    ratio_Tw, deg_Tw = _guarded_ratio(norm(Tw, p), b)
    ratio_Th, deg_Th = _guarded_ratio(norm(Th, 1), a + c)
    report = RedecompositionReport(
        a=a, b=b, c=c, lam=lam,
        ratio_h=ratio_h, ratio_w_p=ratio_w, ratio_Tw_p=ratio_Tw, ratio_Th=ratio_Th,
        holder_lhs=holder_lhs, holder_rhs=holder_rhs,
        degenerate=degenerate or deg_h or deg_w or deg_Tw or deg_Th,
    )
    return (h, Th), (w, Tw), report


def _clamp_box(values: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.clip(values, center - radius, center + radius)


def _certify(
    inst: DualInstance, c: float, v_values: np.ndarray, Tsv: np.ndarray
) -> tuple[float, tuple[float, float, float]]:
    """Maximum relative constraint violation of v at constant c (<= 0 is feasible),
    and the three sizes it was taken from."""
    dust = dual_search._ABS_DUST * inst.scale
    viol = []
    bound_p = c * inst.s
    size = power_mean(np.abs(v_values), inst.p)
    viol.append((size - bound_p - dust) / max(bound_p, dust))
    bound_f = c * inst.r
    dev_f = float(np.abs(inst.f.values - v_values).max())
    viol.append((dev_f - bound_f - dust) / max(bound_f, dust))
    bound_T = c * (inst.t + inst.r)
    dev_T = float(np.abs(inst.Tstar_f.values - Tsv).max())
    viol.append((dev_T - bound_T - dust) / max(bound_T, dust))
    return max(viol), (size, dev_f, dev_T)


def reference_feasible(
    inst: DualInstance, c: float, x0: np.ndarray | None = None, w0: np.ndarray | None = None
) -> FeasibilityOutcome:
    c = float(c)
    max_iter, tol = dual_search.MAX_ITER, dual_search.FEAS_TOL
    fv = inst.f.values
    sup_mask = None if inst.support is None else inst.support.membership
    if inst.r == 0.0:
        out, sizes = _certify(inst, c, fv, inst.Tstar_f.values)
        if out <= tol:
            return FeasibilityOutcome("feasible", inst.f, 0, 0.0, sizes, inst.Tstar_f.values)
        return FeasibilityOutcome("infeasible", None, 0, 0.0)

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
    w = Ts(v) if w0 is None else w0.copy()

    best_res = math.inf
    best_iter = 0
    scale = max(1.0, float(np.abs(fv).max()))
    for k in range(1, max_iter + 1):
        vg, wg = reference_graph_step(inst, v, w)
        if k % 5 == 1:
            cand = vg if sup_mask is None else np.where(sup_mask, vg, 0.0)
            Tcand = Ts(cand)
            res, sizes = _certify(inst, c, cand, Tcand)
            if res <= tol:
                return FeasibilityOutcome("feasible", GridFunction(cand), k, 0.0, sizes, Tcand)
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
    n, classes = inst.kernel.shape
    rows = np.stack((v, w))
    tv, tw = inst.apply_tstar(rows)
    sums = rows @ inst.kernel
    # (v + Pi v + T w) / 2 and (w - Pi w + T* v) / 2, with T = t_sign T*
    vg = (v + np.tile(sums[0], n // classes) + inst.t_sign * tw) * 0.5
    wg = (w - np.tile(sums[1], n // classes) + tv) * 0.5
    return vg, wg


def _sq(*parts: np.ndarray) -> float:
    """|(parts)|^2, over the parts laid end to end."""
    joined = np.concatenate(parts)
    return float(joined @ joined)


def unfused_feasible(
    inst: DualInstance, c: float, x0: np.ndarray | None = None, w0: np.ndarray | None = None
) -> FeasibilityOutcome:
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
        res, sizes, tv = _measure(inst, c, fv)
        if res <= FEAS_TOL:
            return FeasibilityOutcome("feasible", inst.f, 0, 0.0, sizes, tv)
        return FeasibilityOutcome("infeasible", None, 0, 0.0)

    n = fv.size
    bound_p = c * inst.s
    bound_f = c * inst.r
    bound_T = c * (inst.t + inst.r)
    tsf = inst.Tstar_f.values
    lo_f, hi_f = fv - bound_f, fv + bound_f
    lo_T, hi_T = tsf - bound_T, tsf + bound_T
    v = inst.v0.values if x0 is None else x0
    w = inst.apply_tstar(v) if w0 is None else w0

    c_accept = (1.0 + FEAS_TOL) * (c + _ABS_DUST * inst.scale / min(inst.s, inst.r, inst.t + inst.r))
    c_accept *= 1.0 + 1e-9

    def witness(x: np.ndarray, k: int) -> tuple[float, FeasibilityOutcome | None]:
        """The direct check of x masked to E: its violation, and the "feasible" outcome if it passes."""
        cand = x if sup_mask is None else np.where(sup_mask, x, 0.0)
        res, sizes, tv = _measure(inst, c, cand)
        if not res <= FEAS_TOL:
            return res, None
        return res, FeasibilityOutcome("feasible", GridFunction(cand), k, best_bound, sizes, tv)

    best_bound = 0.0
    best_res = math.inf
    best_iter = 0
    total = np.zeros(2 * n)  # the running sum of the box normals
    for k in range(1, MAX_ITER + 1):
        vg, wg = unfused_graph_step(inst, v, w)
        p2 = np.minimum(np.maximum(v, lo_f), hi_f) - v
        p3 = np.minimum(np.maximum(w, lo_T), hi_T) - w
        normals = np.concatenate((p2, p3))
        total = total + normals
        if k % 5 == 1:
            res, found = witness(vg, k)
            if found is not None:
                return found
            if res < best_res * (1.0 - 1e-3):
                best_res = res
                best_iter = k
            elif k - best_iter > 300 and k > 400:
                return FeasibilityOutcome("infeasible", None, k, best_bound)
            # the better of the box normals and their running sum, which at k = 1 are one pair
            bound = _dual_bound(inst, normals) if k == 1 else max(_dual_bound(inst, np.stack((normals, total))))
            best_bound = max(best_bound, bound)
            if bound > c_accept:
                return FeasibilityOutcome("infeasible", None, k, best_bound)

        if inst.p == 2.0 and sup_mask is None:
            vv = float(v @ v)
            size = math.sqrt(vv / n)
            alpha = bound_p / size - 1.0 if size > bound_p else 0.0
            d1 = v * alpha
            d1_sq = alpha * alpha * vv
        else:
            d1 = project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p) - v
            d1_sq = float(d1 @ d1)
        gv, gw = vg - v, wg - w
        spread = d1_sq + _sq(p2, p3) + _sq(gv, gw)
        dv = (p2 + d1) + gv
        dw = p3 + gw
        mean_sq = _sq(dv, dw)
        step = EXTRAPOLATION * spread / mean_sq if mean_sq > 0.0 else 0.0
        dv = dv * step
        dw = dw * step
        move = float(max(np.abs(dv).max(), np.abs(dw).max()))
        v = v + dv
        w = w + dw
        if move <= 1e-13 * inst.scale:
            return witness(v, k)[1] or FeasibilityOutcome("infeasible", None, k, best_bound)
    return FeasibilityOutcome("inconclusive", None, MAX_ITER, best_bound)


def reference_min_constant(inst: DualInstance, tol: float = 1e-2) -> dual_search.DualResult:
    feasible, _finish = dual_search.feasible, dual_search._finish
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    hi = norm(inst.f, inst.p) / inst.s  # v = f is feasible here by direct arithmetic
    if not math.isfinite(hi):
        raise ValueError(f"the starting constant norm(f, p) / s overflows the doubles at s = {inst.s!r}")
    if inst.r == 0.0:
        return _finish(inst, hi, hi, None, 0, flagged=False)

    best: FeasibilityOutcome | None = None
    lo = c_lower = 0.0
    iterations = 0
    flagged = False
    warm: np.ndarray | None = None
    while hi - lo > tol * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        out = feasible(inst, mid, x0=warm)
        iterations += out.iterations
        c_lower = max(c_lower, out.bound * (1.0 - 1e-9))
        if out.is_feasible:
            hi = mid
            best = out
            warm = out.v.values
        else:
            lo = mid
            if out.status == "inconclusive":
                flagged = True
        # no constant below a weak-duality bound is workable: skip the midpoints under it
        lo = max(lo, c_lower)
    return _finish(inst, hi, c_lower, best, iterations, flagged)


def _two_matvec_appliers(inst: DualInstance) -> tuple:
    """(T, T*) on raw arrays, as the instance held them: the dense T* and its transpose up to
    DENSE_MAX_N cells, the operators' transforms above it."""
    Ts = inst.Tstar
    if Ts.n <= dual_search.DENSE_MAX_N:
        M = _dense_tstar(Ts.kind, Ts.n, Ts.signs, Ts.negate)
        return M.T.__matmul__, M.__matmul__
    return partial(apply_values, adjoint(Ts)), partial(apply_values, Ts)


@lru_cache(maxsize=8)
def _dense_tstar(kind: str, n: int, signs: tuple[int, ...] | None, negate: bool) -> np.ndarray:
    """as_matrix of the operator with these fields: the bits of the dense T* the instance held."""
    return as_matrix(LinearOperatorSpec(kind, n, signs, negate))


def two_matvec_graph_step(
    inst: DualInstance, v: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact projection of (v, w) onto the graph {(x, T*x)}, in closed form.

    Returns (vg, wg), written to out[:n] and out[n:] when a buffer of
    length 2n is given.
    """
    T, Ts = _two_matvec_appliers(inst)
    u = T(w)
    u += v
    n = u.size
    if out is None:
        out = np.empty(2 * n)
    vg, wg = out[:n], out[n:]
    # add the kernel part of u: its mean, plus its alternating top mode for hilbert
    m = u.sum() / n
    if inst.Tstar.kind == "hilbert":
        even, odd = u[0::2], u[1::2]
        top = 0.5 * (even.sum() / even.size - odd.sum() / odd.size)
        np.add(even, m + top, out=vg[0::2])
        np.add(odd, m - top, out=vg[1::2])
    else:
        np.add(u, m, out=vg)
    vg *= 0.5
    np.multiply(Ts(u), 0.5, out=wg)
    return vg, wg


def two_matvec_dual_bound(inst: DualInstance, a: np.ndarray, b: np.ndarray) -> float:
    """The weak-duality bound of the pair (a, b), with T b by the two-matvec step's own T."""
    n, unit = a.size, inst.unit
    z = a + _two_matvec_appliers(inst)[0](b)
    pairing = abs(float(z @ (unit * inst.f.values))) / n
    if inst.support is not None:
        z[~inst.support.membership] = 0.0
    size = power_mean(np.abs(z), inst.p / (inst.p - 1.0))
    r, t, s = unit * inst.r, unit * inst.t, unit * inst.s
    denom = r * float(np.abs(a).sum()) / n + (t + r) * float(np.abs(b).sum()) / n + s * size
    return pairing / denom if denom > 0.0 else 0.0


def two_matvec_feasible(
    inst: DualInstance, c: float, x0: np.ndarray | None = None, w0: np.ndarray | None = None
) -> FeasibilityOutcome:
    MAX_ITER, FEAS_TOL = dual_search.MAX_ITER, dual_search.FEAS_TOL
    _ABS_DUST, EXTRAPOLATION = dual_search._ABS_DUST, dual_search.EXTRAPOLATION
    _measure, project_lp_ball = dual_search._measure, dual_search.project_lp_ball
    c = float(c)
    if not 0 < c < math.inf:
        raise ValueError(f"constant must be positive and finite, got {c}")
    sup_mask = None if inst.support is None else inst.support.membership

    # r = 0 pins v = f exactly; only the p-ball constraint can still bind.
    if inst.r == 0.0:
        res, sizes, tv = _measure(inst, c, inst.f.values)
        if res <= FEAS_TOL:
            return FeasibilityOutcome("feasible", inst.f, 0, 0.0, sizes, tv)
        return FeasibilityOutcome("infeasible", None, 0, 0.0)

    # the iteration runs in units of inst.unit: f, T*f, the radii and x0 are scaled by it
    unit, n = inst.unit, inst.n
    fv, tsf = unit * inst.f.values, unit * inst.Tstar_f.values
    bound_p = c * (unit * inst.s)
    bound_f = c * (unit * inst.r)
    bound_T = c * (unit * (inst.t + inst.r))
    # stacked (v, w) buffers: the iterate x, the box displacements, the graph
    # projection, and the two sup-norm boxes (np.clip's arithmetic on finite input)
    x, box, graph, lo, hi = np.empty((5, 2 * n))
    v, w = x[:n], x[n:]
    p2, p3 = box[:n], box[n:]
    vg, wg = graph[:n], graph[n:]
    np.multiply(inst.v0.values if x0 is None else x0, unit, out=v)
    if w0 is None:
        w[:] = inst.apply_tstar(v)
    else:
        np.multiply(w0, unit, out=w)
    np.subtract(fv, bound_f, out=lo[:n])
    np.subtract(tsf, bound_T, out=lo[n:])
    np.add(fv, bound_f, out=hi[:n])
    np.add(tsf, bound_T, out=hi[n:])
    stop = 1e-13 * (inst.scale * unit)

    # _measure accepts v at c only if v meets all three constraints at c_accept, so a
    # weak-duality bound above c_accept (with a rounding margin) rules out any later candidate
    c_accept = (1.0 + FEAS_TOL) * (c + _ABS_DUST * inst.scale / min(inst.s, inst.r, inst.t + inst.r))
    c_accept *= 1.0 + 1e-9

    def witness(y: np.ndarray, k: int) -> tuple[float, FeasibilityOutcome | None]:
        """The direct check of y masked to E, in the caller's units: its violation,
        and the "feasible" outcome if it passes."""
        cand = (y if sup_mask is None else np.where(sup_mask, y, 0.0)) / unit
        res, sizes, tv = _measure(inst, c, cand)
        if not res <= FEAS_TOL:
            return res, None
        return res, FeasibilityOutcome("feasible", GridFunction(cand), k, best_bound, sizes, tv)

    best_bound = 0.0
    best_res = math.inf
    best_iter = 0
    total = np.zeros(2 * n)  # the running sum of the box normals
    for k in range(1, MAX_ITER + 1):
        two_matvec_graph_step(inst, v, w, out=graph)
        # the box displacements p2 - v and p3 - w, which are also the box normals
        np.minimum(np.maximum(x, lo, out=box), hi, out=box)
        box -= x
        total += box
        if k % 5 == 1:
            res, found = witness(vg, k)
            if found is not None:
                return found
            if res < best_res * (1.0 - 1e-3):
                best_res = res
                best_iter = k
            elif k - best_iter > 300 and k > 400:
                return FeasibilityOutcome("infeasible", None, k, best_bound)
            # the better of the box normals of the current iterate and their running sum
            bound = max(two_matvec_dual_bound(inst, p2, p3), two_matvec_dual_bound(inst, total[:n], total[n:]))
            best_bound = max(best_bound, bound)
            if bound > c_accept:
                return FeasibilityOutcome("infeasible", None, k, best_bound)

        # the displacements d_i to the p-ball (p1 - v, 0), the f-box (p2 - v, 0),
        # the T*-box (0, p3 - w) and the graph (vg - v, wg - w)
        d1 = project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
        d1 -= v
        graph -= x
        spread = float(d1 @ d1 + p2 @ p2 + p3 @ p3 + vg @ vg + wg @ wg)  # 4 mean |d_i|^2
        # (dv, dw) = (d1 + p2 + vg, p3 + wg) in box; p2 += d1 gives d1 + p2 bit for bit
        p2 += d1
        box += graph
        mean_sq = float(p2 @ p2 + p3 @ p3)  # 16 |d|^2, with d = (dv, dw) / 4
        # EXTRAPOLATION * L * d = EXTRAPOLATION * (spread / mean_sq) * (dv, dw)
        step = EXTRAPOLATION * spread / mean_sq if mean_sq > 0.0 else 0.0
        box *= step
        move = float(np.abs(box, out=graph).max())  # graph is free until the next step
        x += box
        if move <= stop:
            # every projection agrees at a fixed point: x itself may be the witness
            return witness(v, k)[1] or FeasibilityOutcome("infeasible", None, k, best_bound)
    return FeasibilityOutcome("inconclusive", None, MAX_ITER, best_bound)


def two_matvec_min_constant(inst: DualInstance, tol: float = 1e-2) -> dual_search.DualResult:
    _violation, _finish = dual_search._violation, dual_search._finish
    FEAS_TOL = dual_search.FEAS_TOL
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    hi = norm(inst.f, inst.p) / inst.s  # v = f is feasible here by direct arithmetic
    if not math.isfinite(hi):
        raise ValueError(f"the starting constant norm(f, p) / s overflows the doubles at s = {inst.s!r}")
    if inst.r == 0.0:
        return _finish(inst, hi, hi, None, 0, flagged=False)

    held: FeasibilityOutcome | None = None  # the last accepted witness, with its measured sizes and T*v
    lo = c_lower = 0.0
    iterations = 0
    flagged = False
    while hi - lo > tol * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if held is not None and _violation(inst, mid, held.sizes) <= FEAS_TOL:
            hi = mid  # feasible's own acceptance rule, on the sizes the held witness already measured
            continue
        x0, w0 = (None, None) if held is None else (held.v.values, held.tstar_v)
        out = two_matvec_feasible(inst, mid, x0=x0, w0=w0)
        iterations += out.iterations
        c_lower = max(c_lower, out.bound * (1.0 - 1e-9))
        if out.is_feasible:
            hi = mid
            held = out
        else:
            lo = mid
            if out.status == "inconclusive":
                flagged = True
        # no constant below a weak-duality bound is workable: skip the midpoints under it
        lo = max(lo, c_lower)
    return _finish(inst, hi, c_lower, held, iterations, flagged)


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
