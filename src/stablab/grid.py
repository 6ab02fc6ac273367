"""Dyadic periodic grid substrate: functions, intervals, sets, norms.

The underlying measure space is the circle [0, 1) with normalized Lebesgue
measure, discretized into n = 2^k uniform cells.  Because the measure is
finite, every grid function lies in every L^p simultaneously, and all norms
below use the normalized counting measure (divide by n) so that continuum
identities hold without rescaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "DyadicInterval",
    "GridSet",
    "DimensionError",
    "norm",
    "power_mean",
    "inner",
    "mask",
    "dilate_interval",
    "dyadic_means",
]


class DimensionError(ValueError):
    """Raised when two grid objects live on grids of different sizes."""


def _as_grid_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"grid values must be one-dimensional, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid values must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued function on the uniform dyadic grid over the circle [0, 1).

    Immutable after construction; arithmetic returns new instances.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_values(self.values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(np.zeros(n))

    @classmethod
    def constant(cls, value: float, n: int) -> "GridFunction":
        return cls(np.full(n, float(value)))

    def __eq__(self, other) -> bool:
        return isinstance(other, GridFunction) and np.array_equal(self.values, other.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.values - other.values)

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.values * float(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "GridFunction"):
        if self.n != other.n:
            raise DimensionError(f"grid sizes differ: {self.n} vs {other.n}")

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        values = json.loads(text)
        if not isinstance(values, list) or any(type(x) not in (int, float) for x in values):  # a bool is no number
            raise ValueError("grid values must be a JSON array of numbers")
        try:
            return cls(values)
        except OverflowError:  # a JSON integer beyond the largest double
            raise ValueError("grid values must be finite") from None


@dataclass(frozen=True)
class DyadicInterval:
    """The dyadic interval [index * 2^-level, (index + 1) * 2^-level) of [0, 1)."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.index < 2**self.level:
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def length(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def left(self) -> float:
        return self.index * self.length

    @property
    def right(self) -> float:
        return (self.index + 1) * self.length

    @property
    def center(self) -> float:
        return (self.index + 0.5) * self.length

    def cell_slice(self, n: int) -> slice:
        """Half-open cell index range [start, stop) on a grid of n cells."""
        per = n >> self.level
        if per == 0:
            raise ValueError(f"level {self.level} is finer than a grid of {n} cells")
        return slice(self.index * per, (self.index + 1) * per)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def nested_or_disjoint(self, other: "DyadicInterval") -> bool:
        return self.contains(other) or other.contains(self) or self.disjoint(other)

    def disjoint(self, other: "DyadicInterval") -> bool:
        return self.right <= other.left or other.right <= self.left

    def to_dict(self) -> dict:
        return {"level": self.level, "index": self.index}


@dataclass(frozen=True, eq=False)
class GridSet:
    """Measurable subset of the circle, one boolean per grid cell."""

    membership: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.membership, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("membership must be one-dimensional")
        n = arr.shape[0]
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 2, got {n}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "membership", arr)

    @property
    def n(self) -> int:
        return self.membership.shape[0]

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.membership)) / self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, GridSet) and np.array_equal(self.membership, other.membership)

    def complement(self) -> "GridSet":
        return GridSet(~self.membership)

    @classmethod
    def full(cls, n: int) -> "GridSet":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_interval(cls, interval: DyadicInterval, n: int) -> "GridSet":
        member = np.zeros(n, dtype=bool)
        member[interval.cell_slice(n)] = True
        return cls(member)

    @classmethod
    def from_json(cls, text: str) -> "GridSet":
        cells = json.loads(text)
        if not isinstance(cells, list) or any(x not in (0, 1) for x in cells):  # true and false are 1 and 0
            raise ValueError("a set must be a JSON array of 0/1 values")
        return cls(np.asarray(cells, dtype=bool))


def _as_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def norm(f: GridFunction, p) -> float:
    """L^p norm with respect to the normalized counting measure.

    norm(f, p) = power_mean(|f|, p) for finite p, max |f_i| for p = inf.
    """
    p = _as_p(p)
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    return power_mean(a, p)


# the decorator form costs about 1.3 us a call against 2.3 us for a with-statement, and
# np.add.reduce(x) / x.size is np.mean's arithmetic for a 1-D x without its 5 us of Python
# (numpy 2.4, x86-64); norm and each p = 2 projection step of the dual search call this
@np.errstate(over="ignore")
def power_mean(a: np.ndarray, p: float) -> float:
    """(mean a_i^p)^(1/p) of a 1-D non-negative array, without overflow warnings.

    When the direct value overflows, or mean a_i^p falls below the normal
    range for a non-zero a, it is recomputed as m * (mean (a_i/m)^p)^(1/p)
    with m = max a_i.
    """
    direct = (float(np.add.reduce(a**p)) / a.size) ** (1.0 / p)
    if math.isinf(direct) or (direct < 1.0 and direct**p < _TINY):
        m = float(a.max())
        if m > 0.0:
            return m * (float(np.add.reduce((a / m) ** p)) / a.size) ** (1.0 / p)
    return direct


def inner(f: GridFunction, g: GridFunction) -> float:
    """Normalized pairing <f, g> = mean(f_i * g_i)."""
    f._check_same_grid(g)
    return float(np.mean(f.values * g.values))


def mask(f: GridFunction, E: GridSet) -> GridFunction:
    """Pointwise restriction: f on E, zero off E."""
    if f.n != E.n:
        raise DimensionError(f"grid sizes differ: {f.n} vs {E.n}")
    return GridFunction(np.where(E.membership, f.values, 0.0))


def dilate_interval(Q: DyadicInterval, factor: float, n: int) -> GridSet:
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
        return GridSet.full(n)
    lo = Q.center - length / 2.0
    hi = Q.center + length / 2.0
    edges = np.arange(n + 1) / n
    starts, stops = edges[:-1], edges[1:]
    member = np.zeros(n, dtype=bool)
    for shift in (-1.0, 0.0, 1.0):
        # cell [a, b) meets open (lo, hi) iff lo < b and a < hi, strictly
        member |= (lo + shift < stops) & (starts < hi + shift)
    return GridSet(member)


def dyadic_means(values: np.ndarray) -> list[np.ndarray]:
    """means[l][j] = mean of values over the dyadic interval (l, j), built from the cells up.

    The cells run along axis 0, so a 2-D array gives the means of each column.
    """
    levels = [values.astype(float)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(0.5 * (prev[0::2] + prev[1::2]))
    levels.reverse()
    return levels
