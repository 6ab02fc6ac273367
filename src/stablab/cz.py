"""Dyadic stopping-time decomposition at a level lambda.

The averages of |f| over the dyadic intervals of [0, 1) form one
heap-ordered pyramid (grid.dyadic_pyramid).  An interval is hot when its
average exceeds lambda, and the selected intervals are the hot ones with no
hot ancestor, chosen in heap order: the largest hot interval on every path
from the root.
On each selected interval the good part is the (signed) average of f and
the bad part is the mean-zero remainder; off the selected intervals the
good part is f itself.  The exceptional set omega is the union of the
selected intervals dilated by DILATION, the factor of theorem 1, as the
integer cell ranges of grid.dilated_cells.

Selection is strict (average > lambda), so the parent of every selected
interval has average at most lambda and the good part is bounded by
2 * lambda whenever the root itself is not selected.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .grid import DimensionError, DyadicInterval, GridFunction, GridSet, dilated_cells, dyadic_pyramid, norm

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
    def root_selected(self) -> bool:
        # read off the cubes: the dyadic means and a separately summed norm(f, 1) round differently
        return any(q.level == 0 for q in self.cubes)

    @property
    def cube_measure(self) -> float:
        return float(sum(q.length for q in self.cubes))

    def to_json(self) -> str:
        cubes = [{"level": q.level, "index": q.index} for q in self.cubes]
        return json.dumps({"lambda": float(self.level), "cubes": cubes, "dilation_factor": DILATION})


def _stopping_nodes(av: np.ndarray, level: float) -> np.ndarray:
    """Heap indices (see dyadic_pyramid) of the nodes hot for av with no hot ancestor, ascending.

    A node is hot when its mean of av exceeds level; hot nodes are found by
    one comparison over the pyramid and then drop out, one generation of
    ancestors at a time, when an ancestor is hot.
    """
    if float(av.max()) <= level:  # no mean exceeds max av, so no node is hot
        return np.empty(0, dtype=np.intp)
    hot = dyadic_pyramid(av) > level  # entry 0 is 0 and never hot
    nodes = np.flatnonzero(hot)
    above = nodes >> 1
    while above.size and above[-1]:  # ascending, so the last has the deepest ancestors left
        keep = ~hot[above]
        nodes, above = nodes[keep], above[keep] >> 1
    return nodes


@np.errstate(over="ignore", invalid="ignore")  # a cube's sum beyond the doubles; its mean then comes off a pyramid
def _stopping_split(values: np.ndarray, av: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arithmetic of ``cz_decompose`` on the cells values, given av = |values|.

    Returns (nodes, good, omega): the heap indices of the cubes (see
    dyadic_pyramid), ascending; the good part; and the cells of omega.  Each
    level's cubes get their good part in one assignment, the mean summed as
    np.mean sums it or, when that sum leaves the doubles, read off the
    dyadic_pyramid of the cube, and their dilations are marked in omega as
    the integer cell ranges of grid.dilated_cells, wrapping round the circle.
    """
    n = values.shape[0]
    nodes = _stopping_nodes(av, level)
    heap_order = nodes.tolist()
    good = values.copy()
    omega = np.zeros(n, dtype=bool)
    for lev in sorted({node.bit_length() - 1 for node in heap_order}):
        picked = nodes[bisect_left(heap_order, 1 << lev) : bisect_left(heap_order, 2 << lev)] - (1 << lev)
        per = n >> lev
        if per > 1:  # a one-cell cube's mean is its cell, which good already holds
            # row i of the reshape is the cells of interval (lev, i)
            rows = values.reshape(2**lev, -1)[picked]
            means = np.add.reduce(rows, axis=1, keepdims=True) / per
            if not np.logical_and.reduce(np.isfinite(means), axis=None):
                means = dyadic_pyramid(rows)[:, 1:2]
            good.reshape(2**lev, -1)[picked] = means
        cells = dilated_cells(lev, picked, DILATION, n)
        if cells is None:
            omega[:] = True
            continue
        lo, count = cells
        marked = np.add.outer(lo, np.arange(count))
        marked &= n - 1  # modulo n, a power of two
        omega[marked] = True
    return nodes, good, omega


def cz_decompose(f: GridFunction, level: float) -> CzDecomposition:
    """Stopping-time decomposition of f at the given level.

    The cubes are the hot nodes of the dyadic pyramid of |f| (mean above
    the level) that have no hot ancestor, chosen in heap order, down to
    single cells, so a cell with |f| > level becomes a one-cell cube where
    the bad part vanishes identically.  Omega holds the cells that meet a
    cube's open dilated interval.  When max |f| <= level nothing is
    selected and no pyramid is built.  The cubes come out left to right.
    """
    level = float(level)
    if not 0 < level < np.inf:
        raise ValueError(f"decomposition level must be positive and finite, got {level}")
    nodes, good, omega = _stopping_split(f.values, np.abs(f.values), level)
    cubes = [DyadicInterval(node.bit_length() - 1, node - (1 << (node.bit_length() - 1))) for node in nodes.tolist()]
    cubes.sort(key=lambda q: q.left)  # dyadic lefts are exact, and disjoint cubes have distinct lefts
    return CzDecomposition(level, tuple(cubes), GridFunction(good), GridFunction(f.values - good), GridSet(omega))


def verify_cz(d: CzDecomposition, f: GridFunction, ps=(1.5, 2.0, 3.0, 4.0)) -> list[CheckResult]:
    """Re-measure every decomposition invariant against f.

    Maximality reads each cube's parent mean from the dyadic_pyramid of |f|
    that the selection compared, at heap entry (2^level + index) // 2.
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
    checks = [CheckResult("additivity", resid <= MEAN_ZERO_TOL * scale, MEAN_ZERO_TOL * scale - resid)]

    worst_mean = 0.0
    covered = np.zeros(n, dtype=int)
    maximal = True
    heap = dyadic_pyramid(np.abs(f.values))  # the numbers the selection compares, so ties agree
    for q in d.cubes:
        sl = q.cell_slice(n)
        covered[sl] += 1
        worst_mean = max(worst_mean, abs(float(d.bad.values[sl].mean())))
        if heap[((1 << q.level) + q.index) >> 1] > lam:  # a root cube reads entry 0, which is 0
            maximal = False
    checks.append(CheckResult("mean_zero_on_cubes", worst_mean <= MEAN_ZERO_TOL * scale, MEAN_ZERO_TOL * scale - worst_mean))
    checks.append(CheckResult("cubes_disjoint", int(covered.max(initial=0)) <= 1, float(1 - covered.max(initial=0))))
    checks.append(CheckResult("cubes_maximal", maximal, 0.0 if maximal else -1.0))

    off = covered == 0
    bad_off = float(np.abs(d.bad.values[off]).max()) if off.any() else 0.0
    checks.append(CheckResult("bad_vanishes_off_cubes", bad_off == 0.0, -bad_off))

    if not d.root_selected:
        sup_g = norm(d.good, np.inf)
        checks.append(CheckResult("good_sup_bound", sup_g <= 2 * lam * (1 + 1e-12), 2 * lam - sup_g))
    cube_mass = d.cube_measure
    checks.append(CheckResult("cube_mass_bound", cube_mass <= f1 / lam * (1 + 1e-12) + 1e-15, f1 / lam - cube_mass))
    g1 = norm(d.good, 1)
    checks.append(CheckResult("good_l1_bound", g1 <= f1 * (1 + 1e-12), f1 - g1))

    omega_bound = min(1.0, DILATION * f1 / lam) + 2.0 * len(d.cubes) / n
    checks.append(CheckResult("omega_measure_bound", d.omega.measure <= omega_bound * (1 + 1e-12), omega_bound - d.omega.measure))

    if not d.root_selected:
        for p in ps:
            # in units of 2 lambda, where both sides are O(1) and cannot overflow
            lhs = (norm(d.good, p) / (2 * lam)) ** p
            rhs = f1 / (2 * lam)
            checks.append(CheckResult(f"good_lp_budget_p={p:g}", lhs <= rhs * (1 + 1e-12), rhs - lhs))
    return checks


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
