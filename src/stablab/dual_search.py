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

The graph projection has a closed form.  For every operator kind,
T*T = T T* = I - Pi, with Pi the orthogonal projection onto ker T*: the
constants, plus the alternating top Fourier mode for ``hilbert``, so that Pi
is the mean, or for ``hilbert`` the mean over the even and over the odd
cells.  Hence (I + T T*)^{-1} = (I + Pi) / 2, Pi T = 0 and T* Pi = 0, and the
projection of (v, w) is ((v + Pi v + T w) / 2, (w - Pi w + T* v) / 2).  It
needs T w and T* v only, which are independent, and T w is -T* w for
``hilbert`` and T* w for the self-adjoint kinds: each step applies T* once,
to both rows of the stacked (v, w).  T* is a dense gemm up to
n = DENSE_MAX_N, and above it one two-row FFT for ``hilbert``.  The Haar
transform is local: every h_Q on at most HAAR_BLOCK cells lives inside one
block of HAAR_BLOCK cells, and every coarser h_Q is constant on those
blocks.  So above DENSE_MAX_N its T* is one batched product of
HAAR_BLOCK x HAAR_BLOCK tables per band of log2 HAAR_BLOCK dyadic levels,
applied to the means at that band's scale, each band added into the finer
one.  Each band's tables come from one transform of a comb of HAAR_BLOCK
rows.  Which T* runs belongs to the operator, not to the instance or the
call: its applier, with the dense T* or the tables it holds, is built once
per operator and shared, read-only, by every instance and call on it.  The
iteration runs on preallocated stacked buffers, each of length 2n and
holding a (v, w) pair: the iterate, the box displacements, their running
sum and the graph projection.  The box bounds are stacked the same way once
per call, so the step and its size are one numpy call each, and the spread
of the displacements is three dot products.  At p = 2 with
no support the p-ball projection is a radial scaling, whose factor and
displacement size come from v.v.  Outside T*, the p-ball projection at
other p, the support mask and the checks on every fifth iteration, the
loop allocates nothing.  Each instance settles once the unit the search
computes in: 1 unless norm(f, inf) lies outside [2^-400, 2^400], and beyond
that the power of two that brings norm(f, inf) into [0.5, 1).  No square,
sum or pairing of the search then leaves the normal range, so it gives the
same answer at every magnitude of f.

Every reported witness is re-checked against the constraints by direct
norm evaluation; the solver is never trusted for the final verdict.

"Infeasible" is certified by weak duality when the iterate yields the
proof: for any pair (a, b) and z = a + T b,

    c* >= |<z, f>| / (r |a|_1 + (t+r) |b|_1 + s |chi_E z|_p'),

and ``feasible`` evaluates this on every check iteration at two pairs: the
two box normals of its iterate, and their running sum since the call began,
from one application of T* to the two rows.  The bound does not change when
a pair is scaled, so the sum stands for the mean.  When the sets do not meet,
parallel projections still converge to a least-squares point (Combettes,
IEEE Trans. Signal Process. 42(11), 1994), so the sum settles on a pair that
separates them while the current normals can stall.  The first bound, of the
start's normals, which are also the sum's at the first iteration, is read
before the first step.  A bound above the largest constant at which the
direct check could still accept a candidate ends the call.  When no such
bound turns up, a run that stops improving is still called "infeasible"
(the stagnation rule, a heuristic kept as the fallback; no verdict of the
default theorem-2 campaign at n = 256, 1024 or 4096 rests on it), and a run
that neither finds a witness, nor a bound, nor stagnates ends "inconclusive".
Every bound is a certified lower bound on c*: ``feasible`` returns the
largest one it found, and ``min_constant`` reports the largest over its calls
as the lower end ``c_lower`` of a bracket whose upper end is the certified
``c_star``.  The bisection raises its lower end to ``c_lower`` after every
call, so no constant below a bound is ever tried.  The upper end uses what
the witness it holds already proves: because the sets are nested, a witness
accepted at one constant meets the constraints at every larger one, so the
sizes its direct check measured decide each later midpoint they cover, by
``feasible``'s own acceptance arithmetic, without another call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .distance import dist_linf_to_lp_ball
from .grid import DimensionError, GridFunction, GridSet, inner, mask, norm, power_mean
from .operators import LinearOperatorSpec, _apply_haar, adjoint, apply, apply_values, as_matrix

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
# T* is dense up to this n for every kind, and a transform above it.  Per graph
# step, one stacked T* with its combine, on one BLAS thread (2-core Xeon, best of
# 5 x 2,000 calls).  hilbert: at n = 256 dense 17 us against 25 us for the FFT;
# at n = 512 dense 59-65 us against 28-30 us.  haar_transform: at n = 256 dense
# 15-17 us against 15-16 us on the Haar tables and 64-68 us on the pyramid, so
# the dense step stays, with the default campaign's bits; at n = 512 dense
# 61-64 us against 17-18 us on the tables; at n = 1024 the tables take 18-23 us
# against 72-88 us on the pyramid.  The T* applier is built once per operator and
# kept for the last DENSE_CACHE_SIZE operators, with its read-only dense T* (at
# most 512 KB) or Haar tables (32 doubles per cell in the finest band, and 1/32
# of the band below in each coarser one: 4.3 MB at n = 16,384).
DENSE_MAX_N = 256
DENSE_CACHE_SIZE = 8
# cells per Haar table block: one band of tables covers log2 HAAR_BLOCK dyadic levels
HAAR_BLOCK = 32


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
    # settled once, in __post_init__
    scale: float = field(init=False, repr=False)  # norm(f, inf), or 1 when f = 0: the size the tolerances scale with
    unit: float = field(init=False, repr=False)  # what feasible and _dual_bound multiply f and every length by
    # T* of an array of n cells, or of each row of a (2, n) array: the shared applier of _tstar_applier
    apply_tstar: partial = field(init=False, repr=False)
    t_sign: float = field(init=False, repr=False)  # T = t_sign * T*: -1 for hilbert, +1 for the self-adjoint kinds
    # Pi on the rows of a (2, n) array: the sums of each class of cells (all cells, or for hilbert
    # the even and the odd ones) over the class size, one column per class
    kernel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scale = norm(self.f, np.inf) or 1.0
        # Inside [2^-400, 2^400] no square, sum or pairing of the search leaves the
        # normal range, and the unit stays 1: rescaling there would move output bits,
        # since power_mean's float ** (1/p) is not exactly homogeneous.  Beyond it,
        # the power of two that brings norm(f, inf) into [0.5, 1), at most 2^1023.
        in_range = 2.0**-400 <= self.scale <= 2.0**400
        self.unit = 1.0 if in_range else math.ldexp(1.0, min(-math.frexp(self.scale)[1], 1023))
        Ts = self.Tstar
        self.apply_tstar = _tstar_applier(Ts.kind, Ts.n, Ts.signs, Ts.negate)
        classes = 2 if Ts.kind == "hilbert" else 1
        self.t_sign = -1.0 if Ts.kind == "hilbert" else 1.0
        self.kernel = np.zeros((Ts.n, classes))
        for j in range(classes):
            self.kernel[j::classes, j] = classes / Ts.n

    @property
    def n(self) -> int:
        return self.f.n

    def graph_step(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact projection of the stacked pair x = (v, w) onto the graph {(y, T*y)}, in closed form.

        As T*T = T T* = I - Pi, it is ((v + Pi v + T w) / 2, (w - Pi w + T* v) / 2),
        with T w read as t_sign T* w: one application of T* to both rows, and
        one reduction for Pi of both.  Written to out, a buffer of length 2n.
        """
        n, classes = self.kernel.shape
        x2 = x.reshape(2, n)
        ts = self.apply_tstar(x2)  # (T* v, T* w)
        sums = x2 @ self.kernel
        np.negative(sums[1], out=sums[1])  # (Pi v, -Pi w), one value per class of cells
        np.add(x.reshape(2, -1, classes), sums[:, None, :], out=out.reshape(2, -1, classes))
        if self.t_sign < 0.0:
            np.negative(ts[1], out=ts[1])
        out2 = out.reshape(2, n)
        out2 += ts[::-1]  # (T w, T* v)
        out *= 0.5
        return out


@lru_cache(maxsize=DENSE_CACHE_SIZE)
def _tstar_applier(kind: str, n: int, signs: tuple[int, ...] | None, negate: bool) -> partial:
    """T* of an array of n cells, or of each row of a (2, n) array, for the operator with these fields.

    Keyed by the fields rather than the spec: specs compare by identity, and
    adjoint builds a fresh hilbert spec on every call.  Every outcome takes
    the cells along the last axis, as apply_values does.  One array is always
    one matvec, transform or product per band of Haar tables, so every direct
    check measures T*v the same way; two rows are one gemm or one of those.
    """
    Ts = LinearOperatorSpec(kind, n, signs, negate)
    if n <= DENSE_MAX_N:
        M = as_matrix(Ts)
        M.flags.writeable = False
        return partial(_apply_dense, M)
    if kind == "haar_transform":
        return partial(_apply_haar_tables, _haar_tables(Ts))
    return partial(apply_values, Ts)


def _apply_dense(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x @ M.T  # for a C-ordered M, one row gets the bits of M @ x


def _haar_tables(T: LinearOperatorSpec) -> tuple[np.ndarray, ...]:
    """The Haar transform T as bands of block tables, finest first, read-only.

    Band j acts on the n / HAAR_BLOCK^j means over blocks of HAAR_BLOCK^j
    cells, the top of the dyadic pyramid, whose own heap is the heap's first
    nodes, and holds the next log2 HAAR_BLOCK levels of nodes above them.  It
    is one transform of a comb, row c a 1 at cell c of every block, with the
    signs of the nodes above the blocks at 0, which add exactly 0.0: so row
    c of each block's table is the transform of its cell c, and the table is
    as_matrix of the block's own transform, transposed, bit for bit.
    """
    tables = []
    width = T.n  # the number of means the band acts on
    while width > 1:
        size = min(HAAR_BLOCK, width)
        blocks = width // size
        signs = T.sign_values[: width - 1].copy()
        signs[: blocks - 1] = 0.0
        comb = _apply_haar(np.tile(np.eye(size), (1, blocks)), signs).reshape(size, blocks, size)
        tables.append(np.ascontiguousarray((-comb if T.negate else comb).transpose(1, 0, 2)))
        tables[-1].flags.writeable = False
        width = blocks
    return tuple(tables)


_BLOCK_MEAN = np.full(HAAR_BLOCK, 1.0 / HAAR_BLOCK)
_BLOCK_MEAN.flags.writeable = False


def _apply_haar_tables(tables: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """The Haar transform of x, or of each row of a (2, n) x, on its bands of tables.

    Each band is one batched product of its tables with the means at its
    scale, written through a (block, row, cell) view; the means of each
    block feed the next band, and every band is added into the finer one
    by broadcasting over the block it is constant on.
    """
    rows = x.reshape(-1, x.shape[-1])
    r = rows.shape[0]
    means, outs = rows, []
    for band in tables:
        blocks, size, _ = band.shape
        grouped = means.reshape(r, blocks, size)
        out = np.empty((r, blocks, size))
        np.matmul(grouped.transpose(1, 0, 2), band, out=out.transpose(1, 0, 2))
        outs.append(out)
        if len(outs) < len(tables):
            means = grouped @ _BLOCK_MEAN
    y = outs.pop()
    while outs:
        finer = outs.pop()
        finer += y.reshape(r, -1, 1)
        y = finer
    return y.reshape(x.shape)


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: str  # "feasible" | "infeasible" | "inconclusive"
    v: GridFunction | None
    iterations: int
    bound: float  # the largest weak-duality bound the call found, 0.0 if none
    # of a "feasible" outcome: the sizes its direct check measured, as _measure returns them, and T*v
    sizes: tuple[float, float, float] | None = None
    tstar_v: np.ndarray | None = field(default=None, compare=False)

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


def _violation(inst: DualInstance, c: float, sizes: tuple[float, float, float]) -> float:
    """The largest relative constraint violation at constant c of a witness
    whose sizes norm(v, p), norm(f - v, inf) and norm(T*f - T*v, inf) are
    given (<= 0 is feasible)."""
    dust = _ABS_DUST * inst.scale
    bounds = (c * inst.s, c * inst.r, c * (inst.t + inst.r))
    return max((size - bound - dust) / max(bound, dust) for size, bound in zip(sizes, bounds))


def _measure(inst: DualInstance, c: float, v: np.ndarray) -> tuple[float, tuple[float, float, float], np.ndarray]:
    """One evaluation of the witness v at constant c.

    Returns its largest relative constraint violation (<= 0 is feasible, inf
    when v is non-zero off the support), its sizes norm(v, p),
    norm(f - v, inf) and norm(T*f - T*v, inf), and T*v.
    """
    tv = inst.apply_tstar(v)
    sizes = (
        power_mean(np.abs(v), inst.p),
        float(np.abs(inst.f.values - v).max()),
        float(np.abs(inst.Tstar_f.values - tv).max()),
    )
    if inst.support is not None and float(np.abs(v[~inst.support.membership]).max(initial=0.0)) > 0.0:
        return math.inf, sizes, tv
    return _violation(inst, c, sizes), sizes, tv


def _dual_bound(inst: DualInstance, pairs: np.ndarray) -> float | list[float]:
    """Weak-duality lower bound on the constants at which the constraints meet.

    For any pair (a, b) and z = a + T b, a v meeting the three constraints
    at c (and vanishing off E) has, by Hoelder in each term,

        <z, f> = <a, f - v> + <b, T*f - T*v> + <z, v>
              <= c (r |a|_1 + (t + r) |b|_1 + s |chi_E z|_p'),

    so c >= |<z, f>| / (r |a|_1 + (t + r) |b|_1 + s |chi_E z|_p').

    The bound is unchanged when (a, b) is scaled, or f with r, t and s, so
    f, r, t and s enter in units of inst.unit, the units feasible's pairs
    come in.  The pairs are stacked as feasible holds them: one (a, b) of 2n
    cells gives a float, and the rows of a (k, 2n) array give the list of
    their k bounds, from one application of T* to the rows' b.
    """
    rows = pairs.reshape(-1, pairs.shape[-1])
    n, unit = rows.shape[1] // 2, inst.unit
    z = rows[:, :n] + inst.t_sign * inst.apply_tstar(rows[:, n:])
    pairings = (z @ (unit * inst.f.values)).tolist()
    if inst.support is not None:
        z[:, ~inst.support.membership] = 0.0
    sizes = power_mean(np.abs(z), inst.p / (inst.p - 1.0)).tolist()
    # |a|_1 and |b|_1 of every row, from one reduction over the halves
    sums = np.add.reduce(np.abs(rows).reshape(-1, 2, n), axis=-1).tolist()
    r, t, s = unit * inst.r, unit * inst.t, unit * inst.s
    bounds = []
    for pairing, (sum_a, sum_b), size in zip(pairings, sums, sizes):
        denom = r * sum_a / n + (t + r) * sum_b / n + s * size
        bounds.append(abs(pairing) / n / denom if denom > 0.0 else 0.0)
    return bounds[0] if pairs.ndim == 1 else bounds


def feasible(
    inst: DualInstance, c: float, x0: np.ndarray | None = None, w0: np.ndarray | None = None
) -> FeasibilityOutcome:
    """Search the intersection of the three constraint sets at constant c.

    Extrapolated parallel projections over four convex sets (p-ball with
    support mask, the two sup-norm boxes, and the graph of T*): with d_i the
    displacements of x = (v, w) to the four projections and d their mean,
    x moves by EXTRAPOLATION * L * d, L = mean |d_i|^2 / |d|^2.  The run
    starts at v = x0, or at the instance's cold start, with w = w0 when the
    caller already holds T* x0 and w = T* v otherwise.
    Candidates are read off the graph projection on every fifth iteration
    and accepted only after the direct check, so a "feasible" outcome is
    always certified, and it carries the sizes that check measured with
    T* v.  A rejected candidate is followed by the weak-duality bounds of
    two pairs, read from one two-row T*: the two box normals, and their
    running sum since the call began; the larger one above every constant
    the direct check could accept reports a certified "infeasible".  The
    first bound, that of the start's box normals, is read before the first
    step and ends the call there when it is that large, with one iteration
    counted; otherwise it joins the others only once the first candidate is
    rejected.  Every outcome carries the largest bound the call found.  A
    step too small to move x puts x itself through the same direct check:
    at a fixed point every projection agrees and x is a witness.  Otherwise
    such a run, or one that stops improving while still violated, reports
    "infeasible" (at tolerance; the stagnation rule, a fallback that no
    verdict of the default theorem-2 campaign reaches), and MAX_ITER
    iterations exhausted by every rule report "inconclusive".  The iteration
    runs in units of inst.unit; witnesses are checked and returned in the
    caller's units.
    """
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
    # stacked (v, w) buffers: the iterate x, the box displacements, their running sum,
    # the graph projection, and the two sup-norm boxes (np.clip's arithmetic on finite input)
    x, box, total, graph, lo, hi = buffers = np.empty((6, 2 * n))
    total[:] = 0.0
    pairs = buffers[1:3]  # the box normals and their running sum, the two dual pairs
    v, w = x[:n], x[n:]
    p2, p3 = box[:n], box[n:]
    vg = graph[:n]
    # at p = 2 with no support the p-ball projection scales v, by a factor read off v.v:
    # the unit keeps every square in the normal range
    radial = inst.p == 2.0 and sup_mask is None
    d1 = np.empty(n)
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

    # the bound of the start's box normals, which are those of the first iteration: when it
    # already rules out every candidate, the call ends with no step taken
    np.minimum(np.maximum(x, lo, out=box), hi, out=box)
    box -= x
    first_bound = _dual_bound(inst, box)
    if first_bound > c_accept:
        return FeasibilityOutcome("infeasible", None, 1, first_bound)

    best_bound = 0.0
    best_res = math.inf
    best_iter = 0
    for k in range(1, MAX_ITER + 1):
        inst.graph_step(x, out=graph)
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
            # the better of two dual pairs: the box normals of the current iterate, and their
            # running sum, which at k = 1 is the start's normals
            bound = first_bound if k == 1 else max(_dual_bound(inst, pairs))
            best_bound = max(best_bound, bound)
            if bound > c_accept:
                return FeasibilityOutcome("infeasible", None, k, best_bound)

        # the displacements d_i to the p-ball (d1, 0), the f-box (p2 - v, 0),
        # the T*-box (0, p3 - w) and the graph (vg - v, wg - w)
        if radial:
            # the ball's projection is (1 + alpha) v, so d1 = alpha v and |d1|^2 = alpha^2 v.v
            vv = float(v @ v)
            size = math.sqrt(vv / n)
            alpha = bound_p / size - 1.0 if size > bound_p else 0.0
            d1_sq = alpha * alpha * vv
            np.multiply(v, alpha, out=d1)
        else:
            d1 = project_lp_ball(v if sup_mask is None else np.where(sup_mask, v, 0.0), bound_p, inst.p)
            d1 -= v
            d1_sq = float(d1 @ d1)
        graph -= x
        spread = d1_sq + float(box @ box) + float(graph @ graph)  # 4 mean |d_i|^2
        # (dv, dw) = (d1 + p2 + vg, p3 + wg) in box
        p2 += d1
        box += graph
        mean_sq = float(box @ box)  # 16 |d|^2, with d = (dv, dw) / 4
        # EXTRAPOLATION * L * d = EXTRAPOLATION * (spread / mean_sq) * (dv, dw)
        step = EXTRAPOLATION * spread / mean_sq if mean_sq > 0.0 else 0.0
        box *= step
        move = float(np.abs(box, out=graph).max())  # graph is free until the next step
        x += box
        if move <= stop:
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
    with a certified witness.  The search holds a witness, with the sizes
    its direct check measured and its T*v: first feasible's cold start,
    measured at hi, when it passes feasible's acceptance rule there, then the
    last witness a call accepted.  As the
    sets are nested, that witness meets the constraints at every larger
    constant: a midpoint at which its held sizes pass feasible's own
    acceptance rule (``_violation`` at most FEAS_TOL) becomes hi with no
    call, and every other call starts warm from the held (v, T*v).  The
    lower end lo moves to every constant that is not feasible;
    inconclusive solver verdicts count as infeasible here only and flag
    the result.  After every call lo also rises to c_lower, the largest
    weak-duality bound the calls returned less 1e-9 relative for rounding,
    so the next midpoint is never below a bound.  Those bounds include
    feasible's running sums of the box normals, so every "infeasible" of the
    default theorem-2 campaign rests on a bound, none on the stagnation
    rule, and its largest certified gap (c_star - c_lower) / c_star measured
    0.0080, 0.0087 and 0.0083 at n = 256, 1024 and 4096, within tol = 0.01.
    The search ends once hi - lo <= tol * hi, that is as soon as either the
    certified bracket [c_lower, hi] or the verdicts' bracket is within tol,
    or once lo and hi are adjacent doubles.  At r = 0, c* is exact and
    c_lower = c*.  Raises
    ValueError when the start norm(f, p) / s is not a finite double, as no
    certified constant can then be reported.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    hi = norm(inst.f, inst.p) / inst.s  # v = f is feasible here by direct arithmetic
    if not math.isfinite(hi):
        raise ValueError(f"the starting constant norm(f, p) / s overflows the doubles at s = {inst.s!r}")
    if inst.r == 0.0:
        return _finish(inst, hi, hi, None, 0, flagged=False)

    # the last accepted witness, with its measured sizes and T*v: first the cold start, if it passes at hi
    res, sizes, tv = _measure(inst, hi, inst.v0.values)
    held = FeasibilityOutcome("feasible", inst.v0, 0, 0.0, sizes, tv) if res <= FEAS_TOL else None
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
        out = feasible(inst, mid, x0=x0, w0=w0)
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


def _finish(
    inst: DualInstance, c_star: float, c_lower: float, held: FeasibilityOutcome | None, iterations: int, flagged: bool
) -> DualResult:
    """The result on the held witness's measured sizes, or on v = f, measured here, when none is held."""
    v, sizes = (inst.f, _measure(inst, c_star, inst.f.values)[1]) if held is None else (held.v, held.sizes)
    size_p, dev_f, dev_T = sizes
    violation = _violation(inst, c_star * (1.0 + FEAS_TOL), sizes)
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
