"""Stable near-minimizer construction for the couple (L^1, L^p).

Given f, an operator T, a radius s and a finite exponent p > 1, the
construction is:

1. take the exact minimizer u1 of the L^1 distance to the p-ball of
   radius s, and let u0 = f - u1 carry the distance mass a = norm(u0, 1);
2. pick the level lam so that lam^(p-1) * a = s^p and split u0 = g + h by
   the dyadic stopping-time decomposition at lam;
3. return u = u1 + g.

The residual identity f - u = h then holds cellwise, the p-norm of u is
budgeted by s plus the good-part budget of the decomposition, and the
operator residual T f - T u = T h is controlled through the smallness of
T h away from the dilated stopping cubes.  Because the discrete minimizer
is exact, a equals the distance itself and the classical factor 2 in the
near-minimizer bookkeeping disappears.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .cz import ConsistencyError, CzDecomposition, cz_decompose
from .distance import _clip_level, dist_l1_to_lp_ball
from .grid import GridFunction, GridSet, mask, norm
from .operators import LinearOperatorSpec, apply

__all__ = [
    "StabilityReport",
    "RedecompositionReport",
    "bourgain_construct",
    "kclosed_redecompose",
    "graph_approx_sequence",
    "DEGENERATE_TOL",
]

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class StabilityReport:
    """Bookkeeping constants and the three inequality ratios of one run.

    A run is degenerate when it has no mass to split (a <= DEGENERATE_TOL),
    no ball part (b = 0; neither leaves a level, so lam = 0 and all of u0 is
    good), a split that selects the root cube, or a ratio whose denominator
    falls below DEGENERATE_TOL (that ratio reads 0.0).  A selected root
    (s < a puts lam below mean |u0|) makes the good part the mean of u0 on
    the whole circle, and the ratio_p bound 1 + 2^((p-1)/p) does not hold.
    """

    s: float
    p: float
    a: float  # L^1 mass of f - u1 (equals the L^1 distance, minimizers are exact)
    b: float  # the p-ball radius used by the level identity
    c: float  # L^1 distance of T f to the same ball
    lam: float
    ratio_p: float
    ratio_f: float
    ratio_T: float
    resid_l1: float
    resid_T: float
    cube_count: int
    omega_measure: float
    degenerate: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class RedecompositionReport:
    """Measured norms for one graph-splitting redecomposition, degenerate as a StabilityReport is."""

    a: float
    b: float
    c: float
    lam: float
    ratio_h: float  # norm(h, 1) / a
    ratio_w_p: float  # norm(w, p) / b
    ratio_Tw_p: float  # norm(Tw, p) / b
    ratio_Th: float  # norm(Th, 1) / (a + c)
    holder_lhs: float  # norm(Th, 1) on the dilated cube set
    holder_rhs: float  # c + measure(omega)^(1/p') * (norm(v1, p) + norm(Tw, p))
    degenerate: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _split_at_level(u0: GridFunction, a: float, b: float, p: float) -> tuple[float, CzDecomposition, bool]:
    """Split u0 at lam with lam^(p-1) a = b^p, in units of b so b^p is never formed.

    Returns (lam, split, degenerate).  No mass (a <= DEGENERATE_TOL), no
    ball part (b = 0) or a level beyond the doubles leaves no level: lam = 0,
    all of u0 is good, as at any level above max |u0|, and the split is
    degenerate.  So is a split that selects the root cube, as a level that
    underflows to 0 does; lam then reads 0 too.
    """
    if a > DEGENERATE_TOL and b > 0.0:
        with np.errstate(over="ignore"):  # a level beyond the doubles reads inf
            lam = float(b * np.float64(b / a) ** (1.0 / (p - 1.0)))
        if lam < np.inf:
            # a level that underflows to 0 lies, as the least double does, below every positive mean of |u0|
            d = cz_decompose(u0, lam or math.ulp(0.0))
            return lam, d, d.root_selected
    empty = GridSet(np.zeros(u0.n, dtype=bool))
    return 0.0, CzDecomposition(0.0, (), u0, GridFunction.zeros(u0.n), empty), True


def _guarded_ratio(numer: float, denom: float) -> tuple[float, bool]:
    if denom > DEGENERATE_TOL:
        return numer / denom, False
    return 0.0, True


def bourgain_construct(
    f: GridFunction,
    T: LinearOperatorSpec,
    s: float,
    p,
) -> tuple[GridFunction, StabilityReport]:
    """Build the stable near-minimizer u and measure its quality.

    Returns (u, report); f - u equals the bad part of the decomposition
    exactly, so resid_l1 is norm(h, 1).
    """
    s = float(s)
    if not 0 < s < np.inf:
        raise ValueError(f"ball radius must be positive and finite, got {s}")
    p = float(p)
    dist_f = dist_l1_to_lp_ball(f, s, p)
    u1 = dist_f.minimizer
    u0 = f - u1
    a = dist_f.value  # |f - clip(f)| is (|f| - tau)_+ cell by cell, so this is norm(u0, 1) to the bit
    b = s
    Tf = apply(T, f)
    c = _clip_level(Tf, s, p)[1]  # dist_l1_to_lp_ball(Tf, s, p).value, without its minimizer

    lam, d, degenerate = _split_at_level(u0, a, b, p)
    u = u1 + d.good
    h = d.bad

    resid_l1 = norm(h, 1)
    # T is linear: a bad part that vanishes (no cube, or one-cell cubes only) has T h = 0
    resid_T = norm(apply(T, h), 1) if h.values.any() else 0.0
    ratio_f, deg_f = _guarded_ratio(resid_l1, dist_f.value)
    ratio_T, deg_T = _guarded_ratio(resid_T, dist_f.value + c)
    report = StabilityReport(
        s=s, p=p, a=a, b=b, c=c,
        lam=lam,
        ratio_p=norm(u, p) / s,
        ratio_f=ratio_f,
        ratio_T=ratio_T,
        resid_l1=resid_l1,
        resid_T=resid_T,
        cube_count=len(d.cubes),
        omega_measure=d.omega.measure,
        degenerate=degenerate or deg_f or deg_T,
    )
    return u, report


def kclosed_redecompose(
    u: GridFunction,
    T: LinearOperatorSpec,
    split: tuple[GridFunction, GridFunction, GridFunction, GridFunction],
    p,
) -> tuple[tuple[GridFunction, GridFunction], tuple[GridFunction, GridFunction], RedecompositionReport]:
    """Replace an ambient splitting of (u, Tu) by a graph splitting.

    ``split`` is (u0, v0, u1, v1) with u0 + u1 = u and v0 + v1 = T u.  The
    output pairs are (h, Th) and (w, Tw) with w = u1 + g, where (g, h) is
    the stopping-time split of u0 at the level matched to
    a = max(norm(u0,1), norm(v0,1)) and b = max(norm(u1,p), norm(v1,p)).

    The report carries the measured norm ratios and, separately, the two
    sides of the restricted-to-omega estimate
    norm(Th,1 on omega) <= c + |omega|^(1/p') (norm(v1,p) + norm(Tw,p)).
    It is degenerate by the rules of bourgain_construct: no mass (a <=
    DEGENERATE_TOL) or no ball part (b = 0), where h = 0 and w = u1 + u0;
    a selected root cube; or a ratio with denominator at most DEGENERATE_TOL.
    """
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

    lam, d, degenerate = _split_at_level(u0, a, b, p)
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


def graph_approx_sequence(
    f: GridFunction,
    T: LinearOperatorSpec,
    s_list,
    p,
) -> list[GridFunction]:
    """Approximants f_k = u^(s_k) along an increasing radius schedule.

    Once s_k >= norm(f, p) the construction saturates and returns f itself,
    so both residual sequences end at exactly zero.
    """
    s_list = [float(s) for s in s_list]
    if any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError("radius schedule must be strictly increasing")
    return [bourgain_construct(f, T, s, p)[0] for s in s_list]
