import json
import math

import numpy as np
import pytest

from stablab import (
    DyadicInterval,
    GridFunction,
    GridSet,
    dilate_interval,
    inner,
    mask,
    norm,
)
from stablab.grid import DimensionError


def test_norm_constant_function():
    f = GridFunction.constant(1.0, 8)
    assert norm(f, 2) == 1.0


def test_norm_half_mass_indicator():
    f = GridFunction([1.0, 0.0])
    assert norm(f, 1) == 0.5


def test_norm_two_cell_examples():
    f = GridFunction([2.0, 0.0])
    assert norm(f, 1) == pytest.approx(1.0, abs=1e-15)
    assert norm(f, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert norm(f, np.inf) == 2.0
    # independent summation cross-check
    assert norm(f, 2) == pytest.approx((sum(v * v for v in f.values) / f.n) ** 0.5)


def test_norm_survives_overflow_of_the_power_mean():
    # 1e400 overflows; the rescaled mean gives 1e10 * (1/2)^(1/40)
    out = norm(GridFunction([1e10, 1.0]), 40)
    assert out == pytest.approx(1e10 * 0.5 ** (1 / 40), rel=1e-12)
    assert out == pytest.approx(9.8282e9, rel=1e-4)
    assert norm(GridFunction([1e200, 0.0]), 2) == pytest.approx(1e200 / math.sqrt(2.0), rel=1e-12)


def test_norm_survives_underflow_of_the_power_mean():
    out = norm(GridFunction([1e-200, 0.0]), 3)
    assert out > 0.0
    assert out == pytest.approx(1e-200 * 0.5 ** (1 / 3), rel=1e-12)
    assert norm(GridFunction([1e-200, 0.0]), 2) == pytest.approx(1e-200 / math.sqrt(2.0), rel=1e-12)


def test_norm_rescales_a_subnormal_power_mean():
    f = np.array([3.0, 1.0, 0.5, 0.0])
    unit = norm(GridFunction(f), 1.5)
    # mean |f_i|^1.5 at 1e-210 is about 1e-315, below the normal range
    assert norm(GridFunction(f * 1e-210), 1.5) / 1e-210 == pytest.approx(unit, rel=1e-15)
    # a normal power mean keeps the direct bits
    g = np.array([3.0, -4.0, 0.5, 2.0])
    assert norm(GridFunction(g), 1.5) == float(np.mean(np.abs(g) ** 1.5) ** (1 / 1.5))
    assert norm(GridFunction(g * 1e-100), 3) == float(np.mean(np.abs(g * 1e-100) ** 3) ** (1 / 3))


def test_norm_zero_iff_zero(rng):
    assert norm(GridFunction.zeros(16), 3) == 0.0
    f = GridFunction(rng.standard_normal(16))
    assert norm(f, 3) > 0.0


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, 3.0])  # not a power of two
    with pytest.raises(ValueError):
        GridFunction([np.nan, 1.0])
    with pytest.raises(ValueError):
        GridFunction([np.inf, 1.0])


def test_grid_function_immutable():
    f = GridFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_mask_identity_zero_and_selection():
    f = GridFunction([1.0, 2.0])
    assert mask(f, GridSet.full(2)) == f
    assert mask(f, GridSet([False, False])) == GridFunction.zeros(2)
    picked = mask(f, GridSet([False, True]))
    assert picked == GridFunction([0.0, 2.0])
    with pytest.raises(DimensionError):
        mask(f, GridSet.full(4))


def test_dilate_unit_factor_is_the_cube():
    for level in range(4):
        for index in range(1 << level):
            q = DyadicInterval(level, index)
            got = dilate_interval(q, 1.0, 16)
            want = GridSet.from_interval(q, 16)
            assert got == want


def test_dilate_saturates_to_full_circle():
    q = DyadicInterval(2, 0)  # [0, 1/4), factor 10 -> length 10/4 >= 1
    assert dilate_interval(q, 10.0, 8) == GridSet.full(8)


def test_dilate_wraps_and_includes_open_intersections():
    q = DyadicInterval(3, 0)  # [0, 1/8), factor 2 -> (-1/16, 3/16)
    got = dilate_interval(q, 2.0, 8)
    assert sorted(np.nonzero(got.membership)[0].tolist()) == [0, 1, 7]


def test_dilate_measure_bound():
    n = 64
    for level in range(7):
        for index in range(1 << level):
            q = DyadicInterval(level, index)
            for factor in (1.0, 2.0, 3.5, 7.0, 10.0):
                got = dilate_interval(q, factor, n).measure
                assert got <= min(1.0, factor * q.length) + 2.0 / n + 1e-12


def test_nesting_law_exhaustive_levels_to_six():
    intervals = [DyadicInterval(l, i) for l in range(7) for i in range(1 << l)]
    for a in intervals:
        for b in intervals:
            assert a.nested_or_disjoint(b)


def test_interval_geometry():
    q = DyadicInterval(3, 5)
    assert q.left == 5 / 8 and q.right == 6 / 8 and q.length == 1 / 8
    assert q.cell_slice(16) == slice(10, 12)
    # half-open, so intervals that only touch are disjoint
    assert q.disjoint(DyadicInterval(3, 6)) and q.disjoint(DyadicInterval(2, 1))
    assert not q.disjoint(DyadicInterval(2, 2)) and not q.disjoint(DyadicInterval(4, 11))


def test_holder_inequality(rng):
    n = 32
    for _ in range(100):
        f = GridFunction(rng.standard_normal(n))
        g = GridFunction(rng.standard_normal(n))
        p = float(rng.uniform(1.01, 5.0))
        q = p / (p - 1.0)
        assert abs(inner(f, g)) <= norm(f, p) * norm(g, q) * (1 + 1e-12)


def test_norm_monotone_in_exponent(rng):
    n = 32
    for _ in range(100):
        f = GridFunction(rng.standard_normal(n))
        lo, hi = sorted(rng.uniform(1.0, 8.0, size=2))
        assert norm(f, lo) <= norm(f, hi) * (1 + 1e-12)
    assert norm(f, 4.0) <= norm(f, np.inf) * (1 + 1e-12)


def test_json_round_trips():
    # the CLI's input forms: functions as arrays of numbers, sets as arrays of 0/1
    f = GridFunction([0.5, -1.25, 3.0, 0.0])
    assert GridFunction.from_json(json.dumps(f.values.tolist())) == f
    assert GridFunction.from_json("[1, 2, 3.5, 0]") == GridFunction([1.0, 2.0, 3.5, 0.0])
    for text in ('["1", "2", true, false]', "[1, 2, 3, true]", "[1, 2, 3, null]", "[[1, 2], [3, 4]]", "{}", "1"):
        with pytest.raises(ValueError, match="grid values must be a JSON array of numbers"):
            GridFunction.from_json(text)
    with pytest.raises(ValueError, match="grid values must be finite"):
        GridFunction.from_json("[" + "9" * 400 + ", 0, 1, 1]")  # beyond the largest double
    E = GridSet([True, False, True, True])
    assert GridSet.from_json(json.dumps([1, 0, 1, 1])) == E
    assert GridSet.from_json("[true, false, true, 1.0]") == E
    for text in ("[0.5, 0, 1, 1]", '["x", "", 1, 1]', "[-1, 0, 1, 1]", "[null, 0, 1, 1]", "{}", "1"):
        with pytest.raises(ValueError, match="a set must be a JSON array of 0/1 values"):
            GridSet.from_json(text)


def test_grid_set_measure_and_ops():
    E = GridSet([True, False, False, True])
    assert E.measure == 0.5
    assert E.complement().measure == 0.5
    assert GridSet(E.membership | E.complement().membership) == GridSet.full(4)
