"""Convex-feasibility search for stable near-minimizers in (L^inf, L^p).

For an instance built from (f, T, s, p) the search looks for v satisfying

    norm(v, p)            <= c * s,
    norm(f - v, inf)      <= c * r,      r = 2 dist_inf(f,  B_p(s)),
    norm(T*f - T*v, inf)  <= c * (t+r),  t = 2 dist_inf(T*f, B_p(s)),

optionally constrained to vanish off a support set E.  All three sets are
convex; the transformed sup-norm constraint is handled by a splitting
variable w = T*v kept consistent through an exact projection onto the
graph of T*.  Feasibility for fixed c is decided by extrapolated parallel
projections (Pierra, Math. Programming 28, 1984; convergence by Combettes,
IEEE Trans. Image Process. 6(4), 1997): x = (v, w) moves along the mean d
of its four projection displacements, by EXTRAPOLATION * L times d with
L = mean |d_i|^2 / |d|^2 >= 1 rather than by d itself.  When d = 0 every
projection agrees, so the iterate is checked directly before the run may
stop as stagnant.  The smallest workable c is then located by bisection,
which is sound because the constraint sets are nested in c, over the
bracket that the verdicts and the weak-duality bounds below certify.

The graph projection has a closed form.  For every operator kind, T T*
is the orthogonal projection onto the complement of ker T*, so
(I + T T*)^{-1} = (I + Pi) / 2 with Pi the projection onto ker T*: the
constants, plus the alternating top Fourier mode for ``hilbert``.  The
projection of (v, w) is then (u + Pi u) / 2 with partner T* u / 2, where
u = v + T w.  T and T* are applied as dense matvecs up to n = DENSE_MAX_N
and by the operators' own transforms above it.  The dense T* belongs to the
operator, not to the instance: it is built once per operator and shared,
read-only, by every instance and call on it.  The iteration runs on
preallocated stacked buffers, each of length 2n and holding a (v, w) pair:
the iterate, the box displacements and the graph projection.  The box
bounds are stacked the same way once per call, so the clamp, the step and
its size are one numpy call each.  Outside the matvecs, the p-ball
projection, the support mask and the checks on every fifth iteration, the
loop allocates nothing.  Where the squared norms of the step or the terms
of a dual bound leave the normal range, at the far ends of the double
range, they are recomputed in units scaled by a power of two, so the
search gives the same answer at every magnitude of f.

Every reported witness is re-checked against the constraints by direct
norm evaluation; the solver is never trusted for the final verdict.

"Infeasible" is certified by weak duality when the iterate yields the
proof: for any pair (a, b) and z = a + T b,

    c* >= |<z, f>| / (r |a|_1 + (t+r) |b|_1 + s |chi_E z|_p'),

and ``feasible`` evaluates this at the two box normals of its iterate on
every check iteration.  A bound above the largest constant at which the
direct check could still accept a candidate ends the call.  When no such
bound turns up, a run that stops improving is still called "infeasible"
(the stagnation rule, a heuristic kept as the fallback), and a run that
neither finds a witness, nor a bound, nor stagnates ends "inconclusive".
Every bound is a certified lower bound on c*: ``feasible`` returns the
largest one it found, and ``min_constant`` reports the largest over its calls
as the lower end ``c_lower`` of a bracket whose upper end is the certified
``c_star``.  The bisection raises its lower end to ``c_lower`` after every
call, so no constant below a bound is ever tried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .distance import dist_linf_to_lp_ball
from .grid import _TINY, DimensionError, GridFunction, GridSet, inner, mask, norm, power_mean
from .operators import LinearOperatorSpec, adjoint, apply, apply_values, as_matrix

__all__ = [
    "DualInstance",
    "DualResult",
    "FeasibilityOutcome",
    "SupportError",
    "make_instance",
    "feasible",
    "min_constant",
    "annihilator_pair",
    "duality_pairing",
    "project_lp_ball",
    "FEAS_TOL",
    "MAX_ITER",
    "DENSE_MAX_N",
]

FEAS_TOL = 1e-7
MAX_ITER = 10000
_ABS_DUST = 1e-12
# relaxation of the extrapolated parallel-projection step, inside (0, 2)
EXTRAPOLATION = 1.9
# T and T* are dense matvecs up to this n and transforms above it.  Per graph
# step on one BLAS thread, dense wins at n = 256 for both kinds, the FFT wins
# from n = 512 and the Haar pyramid from n = 1024.  The dense T* is built once
# per operator and kept, read-only, for the last DENSE_CACHE_SIZE operators
# (at most 512 KB each).
DENSE_MAX_N = 256
DENSE_CACHE_SIZE = 8
# feasible's step ratio is recomputed in rescaled units when its sum of squares
# leaves [_TINY, _SQ_MAX]; below _SQ_MAX the square of the summed step, at most
# three times that sum, cannot overflow
_SQ_MAX = 0.25 * float(np.finfo(float).max)


class SupportError(ValueError):
    """Raised when a function does not vanish off its declared support."""


@dataclass
class DualInstance:
    f: GridFunction
    Tstar: LinearOperatorSpec
    s: float
    p: float
    r: float
    t: float
    Tstar_f: GridFunction
    v0: GridFunction  # feasible's cold start: the sup-distance minimizer of f, zero off the support
    support: GridSet | None = None
    scale: float = field(init=False, repr=False)  # norm(f, inf), or 1 when f = 0: the size the tolerances scale with

    def __post_init__(self):
        self.scale = norm(self.f, np.inf) or 1.0

    @property
    def n(self) -> int:
        return self.f.n

    def appliers(self) -> tuple[Callable, Callable]:
        """(T, T*) on raw arrays.

        Up to DENSE_MAX_N cells, matvecs against the operator's shared
        read-only as_matrix(T*), built on the first call for that operator;
        above it, the operators' own FFT or Haar transforms.
        """
        return _appliers(self.Tstar)

    def apply_tstar(self, x: np.ndarray) -> np.ndarray:
        return self.appliers()[1](x)

    def graph_step(
        self, v: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact projection of (v, w) onto the graph {(x, T*x)}, in closed form.

        Returns (vg, wg), written to out[:n] and out[n:] when a buffer of
        length 2n is given.
        """
        T, Ts = self.appliers()
        u = T(w)
        u += v
        n = u.size
        if out is None:
            out = np.empty(2 * n)
        vg, wg = out[:n], out[n:]
        # add the kernel part of u: its mean, plus its alternating top mode for hilbert
        m = u.sum() / n
        if self.Tstar.kind == "hilbert":
            even, odd = u[0::2], u[1::2]
            top = 0.5 * (even.sum() / even.size - odd.sum() / odd.size)
            np.add(even, m + top, out=vg[0::2])
            np.add(odd, m - top, out=vg[1::2])
        else:
            np.add(u, m, out=vg)
        vg *= 0.5
        np.multiply(Ts(u), 0.5, out=wg)
        return vg, wg


@lru_cache(maxsize=DENSE_CACHE_SIZE)
def _appliers(Ts: LinearOperatorSpec) -> tuple[Callable, Callable]:
    """DualInstance.appliers of the spec object Ts.

    Specs hash by identity, so a lookup here costs a fraction of a
    microsecond.  Every feasible iteration looks up, and without this the
    lookup hashed the haar signs (3 us at n = 256) or, above DENSE_MAX_N,
    built adjoint's fresh hilbert spec (6 us).
    """
    if Ts.n <= DENSE_MAX_N:
        M = _dense_matrix(Ts.kind, Ts.n, Ts.signs, Ts.negate)
        return M.T.__matmul__, M.__matmul__
    return partial(apply_values, adjoint(Ts)), partial(apply_values, Ts)


@lru_cache(maxsize=DENSE_CACHE_SIZE)
def _dense_matrix(kind: str, n: int, signs: tuple[int, ...] | None, negate: bool) -> np.ndarray:
    """as_matrix of the operator with these defining fields, read-only.

    Keyed by the fields rather than the spec: specs compare by identity, and
    adjoint builds a fresh hilbert spec on every call.
    """
    M = as_matrix(LinearOperatorSpec(kind, n, signs, negate))
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: str  # "feasible" | "infeasible" | "inconclusive"
    v: GridFunction | None
    iterations: int
    bound: float  # the largest weak-duality bound the call found, 0.0 if none

    @property
    def is_feasible(self) -> bool:
        return self.status == "feasible"


@dataclass(frozen=True, eq=False)
class DualResult:
    c_star: float
    c_lower: float  # certified lower end: the largest weak-duality bound found, less 1e-9 relative
    v: GridFunction
    res_p: float  # norm(v, p) / s
    res_inf: float  # norm(f - v, inf) / r, 0 when r is degenerate
    res_Tinf: float  # norm(T*f - T*v, inf) / (t + r), 0 when degenerate
    iterations: int
    status: str  # "certified" when the final direct check passed
    flagged: bool  # an inconclusive solver verdict entered the bisection

    def to_json(self) -> str:
        return json.dumps(
            {
                "c_star": float(self.c_star),
                "c_lower": float(self.c_lower),
                "residuals": {
                    "p": float(self.res_p),
                    "inf": float(self.res_inf),
                    "T_inf": float(self.res_Tinf),
                },
                "iterations": int(self.iterations),
                "status": self.status,
                "flagged": bool(self.flagged),
            },
            sort_keys=True,
        )


def make_instance(
    f: GridFunction,
    T: LinearOperatorSpec,
    s: float,
    p,
    support: GridSet | None = None,
) -> DualInstance:
    """Assemble a search instance: T*, T*f, the two sup distances and feasible's cold start."""
    s = float(s)
    if not 0 < s < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {s}")
    p = float(p)
    if support is not None:
        if support.n != f.n:
            raise DimensionError("support set lives on a different grid")
        if float(np.abs(f.values[~support.membership]).max(initial=0.0)) > 0.0:
            raise SupportError("f must vanish off the declared support set")
    Ts = adjoint(T)
    Tsf = apply(Ts, f)
    near = dist_linf_to_lp_ball(f, s, p)
    v0 = near.minimizer if support is None else mask(near.minimizer, support)
    t = 2.0 * dist_linf_to_lp_ball(Tsf, s, p).value
    return DualInstance(f=f, Tstar=Ts, s=s, p=p, r=2.0 * near.value, t=t, Tstar_f=Tsf, v0=v0, support=support)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_lp_ball(values: np.ndarray, radius: float, p: float) -> np.ndarray:
    """Euclidean projection onto {v : norm(v, p) <= radius} (normalized norm).

    p = 2 is the radial scaling, by the scale-safe size of ``power_mean``.
    Other p solve the KKT system in units of the radius, so that no power of
    an input size is formed: x = radius * y with
    y_i + nu y_i^(p-1) = |v_i| / radius and sum y^p = n, which caps every y_i
    at n^(1/p).  log2 nu is bisected over [-1000, 1000] in 80 steps, each
    y_i found by a 60-step inner bisection, and y is scaled down when
    sum y^p still exceeds n.
    """
    n = values.size
    if radius <= 0.0:
        return np.zeros(n)
    p = float(p)
    av = np.abs(values)
    size = power_mean(av, p)
    if size <= radius:
        return values.copy()
    if p == 2.0:
        return values * (radius / size)
    b = av / radius
    top = np.minimum(b, n ** (1.0 / p))
    e_lo, e_hi = -1000.0, 1000.0
    for _ in range(80):
        e = 0.5 * (e_lo + e_hi)
        if float(np.sum(_kkt_root(b, top, 2.0**e, p) ** p)) <= n:
            e_hi = e
        else:
            e_lo = e
    y = _kkt_root(b, top, 2.0**e_hi, p)
    total = float(np.sum(y**p))
    if total > n:
        y *= (n / total) ** (1.0 / p)
    return np.sign(values) * y * radius


def _kkt_root(b: np.ndarray, top: np.ndarray, coef: float, p: float) -> np.ndarray:
    """Per coordinate, the root y in [0, top] of y + coef * y^(p-1) = b, by bisection."""
    lo = np.zeros(b.size)
    hi = top.copy()
    for _ in range(60):
        midv = 0.5 * (lo + hi)
        too_big = midv + coef * midv ** (p - 1.0) > b
        hi = np.where(too_big, midv, hi)
        lo = np.where(too_big, lo, midv)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# feasibility for a fixed constant
# ---------------------------------------------------------------------------


def _measure(inst: DualInstance, c: float, v: np.ndarray) -> tuple[float, float, float, float]:
    """One evaluation of the witness v at constant c.

    Returns its largest relative constraint violation (<= 0 is feasible, inf
    when v is non-zero off the support), then norm(v, p), norm(f - v, inf)
    and norm(T*f - T*v, inf).
    """
    sizes = (
        power_mean(np.abs(v), inst.p),
        float(np.abs(inst.f.values - v).max()),
        float(np.abs(inst.Tstar_f.values - inst.apply_tstar(v)).max()),
    )
    if inst.support is not None and float(np.abs(v[~inst.support.membership]).max(initial=0.0)) > 0.0:
        return (math.inf, *sizes)
    dust = _ABS_DUST * inst.scale
    bounds = (c * inst.s, c * inst.r, c * (inst.t + inst.r))
    return (max((size - bound - dust) / max(bound, dust) for size, bound in zip(sizes, bounds)), *sizes)


def certified(inst: DualInstance, c: float, v: GridFunction) -> bool:
    """Direct, solver-independent constraint check at constant c * (1 + FEAS_TOL)."""
    return _measure(inst, c * (1.0 + FEAS_TOL), v.values)[0] <= 0.0


def _dual_bound(inst: DualInstance, a: np.ndarray, b: np.ndarray) -> float:
    """Weak-duality lower bound on the constants at which the constraints meet.

    For any pair (a, b) and z = a + T b, a v meeting the three constraints
    at c (and vanishing off E) has, by Hoelder in each term,

        <z, f> = <a, f - v> + <b, T*f - T*v> + <z, v>
              <= c (r |a|_1 + (t + r) |b|_1 + s |chi_E z|_p'),

    so c >= |<z, f>| / (r |a|_1 + (t + r) |b|_1 + s |chi_E z|_p').

    The bound is unchanged when (a, b) is scaled, or f with r, t and s.
    When the pairing or the denominator of a non-zero pair leaves the
    normal range (f near either end of the double range), both are
    recomputed with (a, b) and f scaled by powers of two, which is exact
    wherever the direct values were normal.  The direct terms overflow
    there with a numpy warning, which feasible, the caller, turns off.
    """
    fv = inst.f.values
    pairing, denom = _bound_terms(inst, a, b, fv, inst.r, inst.t, inst.s)
    normal = _TINY <= pairing < math.inf and _TINY <= denom < math.inf
    if not normal and (a.any() or b.any()):
        ab, fs = _unit(a, b), _unit(fv)
        pairing, denom = _bound_terms(inst, ab * a, ab * b, fs * fv, fs * inst.r, fs * inst.t, fs * inst.s)
    return pairing / denom if denom > 0.0 else 0.0


def _bound_terms(
    inst: DualInstance, a: np.ndarray, b: np.ndarray, fv: np.ndarray, r: float, t: float, s: float
) -> tuple[float, float]:
    """The pairing |<z, f>| and the denominator of _dual_bound, for the given f, r, t and s."""
    n = a.size
    z = a + inst.appliers()[0](b)
    pairing = abs(float(z @ fv)) / n
    if inst.support is not None:
        z[~inst.support.membership] = 0.0
    az = np.abs(z)
    size = power_mean(az, inst.p / (inst.p - 1.0))
    denom = r * float(np.abs(a).sum()) / n + (t + r) * float(np.abs(b).sum()) / n + s * size
    return pairing, denom


def _unit(*arrays: np.ndarray) -> float:
    """The power of two that scales the largest |entry| of the arrays into [0.5, 1), 1 if there is none."""
    top = max(float(np.abs(a).max()) for a in arrays)
    if not 0.0 < top < math.inf:
        return 1.0
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1000))


def _sum_sq(unit: float, *segments: np.ndarray) -> float:
    """The sum of the squared norms of the segments scaled by unit, in order."""
    return float(sum((unit * y) @ (unit * y) for y in segments))


# the step's squared norms and the dual bound's terms overflow near the top of the
# double range: both are recomputed then, and the direct check rejects non-finite candidates
@np.errstate(over="ignore")
def feasible(inst: DualInstance, c: float, x0: np.ndarray | None = None) -> FeasibilityOutcome:
    """Search the intersection of the three constraint sets at constant c.

    Extrapolated parallel projections over four convex sets (p-ball with
    support mask, the two sup-norm boxes, and the graph of T*): with d_i the
    displacements of x = (v, w) to the four projections and d their mean,
    x moves by EXTRAPOLATION * L * d, L = mean |d_i|^2 / |d|^2.  The run
    starts at v = x0, or at the instance's cold start, with w = T* v.
    Candidates are read off the graph projection on every fifth iteration
    and accepted only after the direct check, so a "feasible" outcome is
    always certified.  A rejected candidate is followed by the weak-duality
    bound of the two box normals; a bound above every constant the direct
    check could accept reports a certified "infeasible".  Every outcome
    carries the largest bound the call found.  A step too small to move x
    puts x itself through the same direct check: at a fixed point every
    projection agrees and x is a witness.
    Otherwise such a run, or one that stops improving while still violated,
    reports "infeasible" (at tolerance), and MAX_ITER iterations exhausted
    by every rule report "inconclusive".
    """
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
    n = fv.size
    # stacked (v, w) buffers: the iterate x, the box displacements, the graph
    # projection, and the two sup-norm boxes (np.clip's arithmetic on finite input)
    x, box, graph, lo, hi = np.empty((5, 2 * n))
    v, w = x[:n], x[n:]
    p2, p3 = box[:n], box[n:]
    vg, wg = graph[:n], graph[n:]
    v[:] = inst.v0.values if x0 is None else x0
    w[:] = inst.apply_tstar(v)
    np.subtract(fv, bound_f, out=lo[:n])
    np.subtract(tsf, bound_T, out=lo[n:])
    np.add(fv, bound_f, out=hi[:n])
    np.add(tsf, bound_T, out=hi[n:])

    # _measure accepts v at c only if v meets all three constraints at c_accept, so a
    # weak-duality bound above c_accept (with a rounding margin) rules out any later candidate
    c_accept = (1.0 + FEAS_TOL) * (c + _ABS_DUST * inst.scale / min(inst.s, inst.r, inst.t + inst.r))
    c_accept *= 1.0 + 1e-9

    def witness(y: np.ndarray, k: int) -> tuple[float, FeasibilityOutcome | None]:
        """The direct check of y masked to E: its violation, and the "feasible" outcome if it passes."""
        cand = y if sup_mask is None else np.where(sup_mask, y, 0.0)
        res = _measure(inst, c, cand)[0]
        if not res <= FEAS_TOL:
            return res, None
        return res, FeasibilityOutcome("feasible", GridFunction(cand), k, best_bound)

    best_bound = 0.0
    best_res = math.inf
    best_iter = 0
    for k in range(1, MAX_ITER + 1):
        inst.graph_step(v, w, out=graph)
        # the box displacements p2 - v and p3 - w, which are also the box normals
        np.minimum(np.maximum(x, lo, out=box), hi, out=box)
        box -= x
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
        # the T*-box (0, p3 - w) and the graph (vg - v, wg - w)
        d1 = project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
        d1 -= v
        graph -= x
        spread = float(d1 @ d1 + p2 @ p2 + p3 @ p3 + vg @ vg + wg @ wg)  # 4 mean |d_i|^2
        unit = 1.0
        if not _TINY <= spread <= _SQ_MAX:
            # the squares left the normal range: take the ratio in units of the largest displacement
            unit = _unit(d1, box, graph)
            spread = _sum_sq(unit, d1, p2, p3, vg, wg)
        # (dv, dw) = (d1 + p2 + vg, p3 + wg) in box; p2 += d1 gives d1 + p2 bit for bit
        p2 += d1
        box += graph
        # 16 |d|^2, with d = (dv, dw) / 4
        mean_sq = float(p2 @ p2 + p3 @ p3) if unit == 1.0 else _sum_sq(unit, p2, p3)
        # EXTRAPOLATION * L * d = EXTRAPOLATION * (spread / mean_sq) * (dv, dw)
        step = EXTRAPOLATION * spread / mean_sq if mean_sq > 0.0 else 0.0
        box *= step
        move = float(np.abs(box, out=graph).max())  # graph is free until the next step
        x += box
        if move <= 1e-13 * inst.scale:
            # every projection agrees at a fixed point: x itself may be the witness
            return witness(v, k)[1] or FeasibilityOutcome("infeasible", None, k, best_bound)
    return FeasibilityOutcome("inconclusive", None, MAX_ITER, best_bound)


# ---------------------------------------------------------------------------
# smallest workable constant
# ---------------------------------------------------------------------------


def min_constant(inst: DualInstance, tol: float = 1e-2) -> DualResult:
    """Bisect on c; sound because the constraint sets are nested in c.

    The upper end hi starts at the directly-certified witness v = f, so the
    geometric growth phase is never needed, and moves to every constant
    with a certified witness.  The lower end lo moves to every constant
    that is not feasible; inconclusive solver verdicts count as infeasible
    here only and flag the result.  After every call lo also rises to
    c_lower, the largest weak-duality bound the calls returned less 1e-9
    relative for rounding, so the next midpoint is never below a bound.
    The search ends once hi - lo <= tol * hi, that is as soon as either the
    certified bracket [c_lower, hi] or the verdicts' bracket is within tol,
    or once lo and hi are adjacent doubles.  At r = 0, c* is exact and
    c_lower = c*.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    fv_norm_p = norm(inst.f, inst.p)

    if inst.r == 0.0:
        c_star = fv_norm_p / inst.s
        return _finish(inst, c_star, c_star, inst.f, 0, flagged=False)

    hi = fv_norm_p / inst.s  # v = f is feasible here by direct arithmetic
    best_v = inst.f
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
            best_v = out.v
            warm = out.v.values
        else:
            lo = mid
            if out.status == "inconclusive":
                flagged = True
        # no constant below a weak-duality bound is workable: skip the midpoints under it
        lo = max(lo, c_lower)
    return _finish(inst, hi, c_lower, best_v, iterations, flagged)


def _finish(
    inst: DualInstance, c_star: float, c_lower: float, v: GridFunction, iterations: int, flagged: bool
) -> DualResult:
    violation, size_p, dev_f, dev_T = _measure(inst, c_star * (1.0 + FEAS_TOL), v.values)
    denom_T = inst.t + inst.r
    return DualResult(
        c_star=c_star,
        c_lower=c_lower,
        v=v,
        res_p=size_p / inst.s,
        res_inf=dev_f / inst.r if inst.r > _ABS_DUST * inst.scale else 0.0,
        res_Tinf=dev_T / denom_T if denom_T > _ABS_DUST * inst.scale else 0.0,
        iterations=iterations,
        status="certified" if violation <= 0.0 else "uncertified",
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# annihilator pairs and the graph pairing
# ---------------------------------------------------------------------------


def annihilator_pair(beta: GridFunction, T: LinearOperatorSpec) -> tuple[GridFunction, GridFunction]:
    """The pair (-T* beta, beta), which annihilates every graph pair (g, Tg)."""
    return (-apply(adjoint(T), beta), beta)


def duality_pairing(
    x: tuple[GridFunction, GridFunction],
    y: tuple[GridFunction, GridFunction],
) -> float:
    """<x, y> = <x1, y1> + <x2, y2> under the normalized inner product."""
    return inner(x[0], y[0]) + inner(x[1], y[1])
