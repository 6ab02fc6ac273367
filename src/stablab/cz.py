"""Dyadic stopping-time decomposition at a level lambda.

The dyadic intervals of [0, 1) are scanned one level at a time from the
root; an interval is selected when the average of |f| over it exceeds
lambda and no larger dyadic interval containing it was selected.
On each selected interval the good part is the (signed) average of f and
the bad part is the mean-zero remainder; off the selected intervals the
good part is f itself.  The exceptional set omega is the union of the
selected intervals dilated by DILATION, the factor of theorem 1.

Selection is strict (average > lambda), so the parent of every selected
interval has average at most lambda and the good part is bounded by
2 * lambda whenever the root itself is not selected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import DimensionError, DyadicInterval, GridFunction, GridSet, dilate_interval, dyadic_means, norm

__all__ = ["CzDecomposition", "CheckResult", "cz_decompose", "verify_cz", "ConsistencyError", "DILATION"]

MEAN_ZERO_TOL = 1e-12
DILATION = 10.0  # every selected cube is dilated by this factor into omega


class ConsistencyError(ValueError):
    """Raised when a decomposition is verified against the wrong function."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float  # bound minus measured value; negative means violated


@dataclass(frozen=True, eq=False)
class CzDecomposition:
    level: float
    cubes: tuple[DyadicInterval, ...]
    good: GridFunction
    bad: GridFunction
    omega: GridSet

    @property
    def n(self) -> int:
        return self.good.n

    @property
    def cube_measure(self) -> float:
        return float(sum(q.length for q in self.cubes))

    def to_json(self) -> str:
        cubes = [q.to_dict() for q in self.cubes]
        return json.dumps({"lambda": float(self.level), "cubes": cubes, "dilation_factor": DILATION})


def cz_decompose(f: GridFunction, level: float) -> CzDecomposition:
    """Stopping-time decomposition of f at the given level.

    One array pass per level of the dyadic means of |f|, down to single
    cells, so a cell with |f| > level becomes a one-cell cube where the bad
    part vanishes identically.  The pass that selects a level's cubes also
    sets their good part and dilates them into omega.  The cubes come out
    left to right.
    """
    level = float(level)
    if not 0 < level < np.inf:
        raise ValueError(f"decomposition level must be positive and finite, got {level}")
    good = f.values.copy()
    omega = np.zeros(f.n, dtype=bool)
    cubes: list[DyadicInterval] = []
    inside = np.zeros(1, dtype=bool)  # per interval of this level: inside a selected cube
    for lev, means in enumerate(dyadic_means(np.abs(f.values))):
        hot = (means > level) & ~inside
        picked = np.flatnonzero(hot)
        if picked.size:
            # row i of the reshape is the cells of interval (lev, i)
            good.reshape(2**lev, -1)[picked] = f.values.reshape(2**lev, -1)[picked].mean(axis=1, keepdims=True)
            for i in picked:
                q = DyadicInterval(lev, int(i))
                cubes.append(q)
                omega |= dilate_interval(q, DILATION, f.n).membership
        inside = np.repeat(inside | hot, 2)
    cubes.sort(key=lambda q: q.left)  # dyadic lefts are exact, and disjoint cubes have distinct lefts
    return CzDecomposition(level, tuple(cubes), GridFunction(good), GridFunction(f.values - good), GridSet(omega))


def verify_cz(d: CzDecomposition, f: GridFunction, ps=(1.5, 2.0, 3.0, 4.0)) -> list[CheckResult]:
    """Re-measure every decomposition invariant against f.

    Also checks the p-norm budget of the good part,
    norm(g, p)^p <= (2 lambda)^(p-1) * norm(f, 1), for each requested p,
    divided through by (2 lambda)^p; its slack is in those units.
    Bounds that presuppose an unselected root are skipped when the root was
    selected.  Raises ConsistencyError when d was clearly not built from f.
    """
    if d.n != f.n:
        raise DimensionError(f"grid sizes differ: {d.n} vs {f.n}")
    resid = float(np.abs(d.good.values + d.bad.values - f.values).max())
    scale = float(np.abs(f.values).max())  # tolerances relative to max |f|, at every magnitude
    if resid > 1e-6 * scale:
        raise ConsistencyError("decomposition does not add back to the supplied function")

    lam = d.level
    n = f.n
    f1 = norm(f, 1)
    root_selected = any(q.level == 0 for q in d.cubes)
    checks = [CheckResult("additivity", resid <= MEAN_ZERO_TOL * scale, MEAN_ZERO_TOL * scale - resid)]

    worst_mean = 0.0
    covered = np.zeros(n, dtype=int)
    maximal = True
    means = dyadic_means(np.abs(f.values))  # the numbers the selection compares, so ties agree
    for q in d.cubes:
        sl = q.cell_slice(n)
        covered[sl] += 1
        worst_mean = max(worst_mean, abs(float(d.bad.values[sl].mean())))
        if q.level > 0 and means[q.level - 1][q.index // 2] > lam:
            maximal = False
    checks.append(CheckResult("mean_zero_on_cubes", worst_mean <= MEAN_ZERO_TOL * scale, MEAN_ZERO_TOL * scale - worst_mean))
    checks.append(CheckResult("cubes_disjoint", int(covered.max(initial=0)) <= 1, float(1 - covered.max(initial=0))))
    checks.append(CheckResult("cubes_maximal", maximal, 0.0 if maximal else -1.0))

    off = covered == 0
    bad_off = float(np.abs(d.bad.values[off]).max()) if off.any() else 0.0
    checks.append(CheckResult("bad_vanishes_off_cubes", bad_off == 0.0, -bad_off))

    if not root_selected:
        sup_g = norm(d.good, np.inf)
        checks.append(CheckResult("good_sup_bound", sup_g <= 2 * lam * (1 + 1e-12), 2 * lam - sup_g))
    cube_mass = d.cube_measure
    checks.append(CheckResult("cube_mass_bound", cube_mass <= f1 / lam * (1 + 1e-12) + 1e-15, f1 / lam - cube_mass))
    g1 = norm(d.good, 1)
    checks.append(CheckResult("good_l1_bound", g1 <= f1 * (1 + 1e-12), f1 - g1))

    omega_bound = min(1.0, DILATION * f1 / lam) + 2.0 * len(d.cubes) / n
    checks.append(CheckResult("omega_measure_bound", d.omega.measure <= omega_bound * (1 + 1e-12), omega_bound - d.omega.measure))

    if not root_selected:
        for p in ps:
            # in units of 2 lambda, where both sides are O(1) and cannot overflow
            lhs = (norm(d.good, p) / (2 * lam)) ** p
            rhs = f1 / (2 * lam)
            checks.append(CheckResult(f"good_lp_budget_p={p:g}", lhs <= rhs * (1 + 1e-12), rhs - lhs))
    return checks


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
