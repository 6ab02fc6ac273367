import json
import math
import warnings

import numpy as np
import pytest

from stablab import (
    DyadicInterval,
    GridFunction,
    GridSet,
    inner,
    mask,
    norm,
)
from oracles import identity_block, reference_dilate_interval, reference_dyadic_means
from stablab.grid import DimensionError, dilated_cells, dyadic_pyramid, power_mean


def dilated_set(q, factor, n):
    cells = dilated_cells(q.level, q.index, factor, n)  # None is the whole circle
    member = np.zeros(n, dtype=bool)
    member[slice(None) if cells is None else (cells[0] + np.arange(cells[1])) % n] = True
    return GridSet(member)


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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 40.0])
def test_power_mean_of_rows_is_each_row_bit_for_bit(p, rng):
    # a direct row, one whose direct value overflows, one below the normal range, and zero
    x = rng.standard_normal((3, 300))
    rows = np.abs(np.stack((x[0], x[1] * 1e200, x[2] * 1e-200, np.zeros(300))))
    got = power_mean(rows, p)
    assert isinstance(got, np.ndarray) and got.shape == (4,)
    assert got.tobytes() == np.array([power_mean(row, p) for row in rows]).tobytes()
    assert isinstance(power_mean(rows[0], p), float)


def test_norm_zero_iff_zero(rng):
    assert norm(GridFunction.zeros(16), 3) == 0.0
    f = GridFunction(rng.standard_normal(16))
    assert norm(f, 3) > 0.0


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, 3.0])  # not a power of two
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, 2.0, 3.0, -np.inf]):
        with pytest.raises(ValueError, match="grid values must be finite"):
            GridFunction(bad)


def test_grid_function_immutable():
    f = GridFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_mask_identity_zero_and_selection():
    f = GridFunction([1.0, 2.0])
    assert mask(f, GridSet([True] * 2)) == f
    assert mask(f, GridSet([False, False])) == GridFunction.zeros(2)
    picked = mask(f, GridSet([False, True]))
    assert picked == GridFunction([0.0, 2.0])
    with pytest.raises(DimensionError):
        mask(f, GridSet([True] * 4))


def test_dilate_unit_factor_is_the_cube():
    for level in range(4):
        for index in range(1 << level):
            q = DyadicInterval(level, index)
            got = dilated_set(q, 1.0, 16)
            want = GridSet.from_interval(q, 16)
            assert got == want


def test_dilate_saturates_to_full_circle():
    q = DyadicInterval(2, 0)  # [0, 1/4), factor 10 -> length 10/4 >= 1
    assert dilated_set(q, 10.0, 8) == GridSet([True] * 8)


def test_dilate_wraps_and_includes_open_intersections():
    q = DyadicInterval(3, 0)  # [0, 1/8), factor 2 -> (-1/16, 3/16)
    got = dilated_set(q, 2.0, 8)
    assert sorted(np.nonzero(got.membership)[0].tolist()) == [0, 1, 7]


def test_dilate_measure_bound():
    n = 64
    for level in range(7):
        for index in range(1 << level):
            q = DyadicInterval(level, index)
            for factor in (1.0, 2.0, 3.5, 7.0, 10.0):
                got = dilated_set(q, factor, n).measure
                assert got <= min(1.0, factor * q.length) + 2.0 / n + 1e-12


def test_dilate_is_the_float_interval_test_cell_for_cell():
    # factors with few bits, so the float endpoints are exact, up to and past saturation
    factors = [1.0, 1.5, 1.9, 2.0, 3.0, 3.5, 7.0, 7.9, 10.0, 31.0, 1e300] + [k / 8 for k in range(9, 140, 7)]
    for n in (2, 8, 64):
        for level in range(n.bit_length()):
            for index in range(1 << level):
                q = DyadicInterval(level, index)
                for factor in factors:
                    assert dilated_set(q, factor, n) == reference_dilate_interval(q, factor, n)
    assert dilated_cells(3, 0, 2.0, 8) == (7, 3)
    assert dilated_cells(2, 0, 10.0, 8) is None
    with pytest.raises(ValueError, match="finer than a grid"):
        dilated_cells(4, 0, 2.0, 8)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        dilated_cells(0, 0, 0.5, 8)


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
    assert GridSet(E.membership | E.complement().membership) == GridSet([True] * 4)


@pytest.mark.parametrize("k", range(1, 15))
def test_dyadic_means_are_the_per_level_pyramid_bit_for_bit(k):
    rng = np.random.default_rng(k)
    n = 2**k
    for magnitude in (2.0**-1070, 1.0, 2.0**1000):
        for values in (
            rng.standard_normal(n) * magnitude,
            rng.choice([-1.0, 1.0], n) * magnitude,
            rng.standard_normal((3, n)) * magnitude,
            identity_block(n, magnitude),
        ):
            # the pyramid batches rows, the reference columns: it runs on the transpose
            heap, want = dyadic_pyramid(values), [m.T for m in reference_dyadic_means(values.T)]
            got = [heap[..., 1 << l : 2 << l] for l in range(k + 1)]
            assert [m.shape for m in got] == [m.shape for m in want]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            # entry 2^l + j is means[l][j]; entry 0 names no interval
            assert heap[..., 1:].tobytes() == np.concatenate(want, axis=-1).tobytes()
            assert not heap[..., 0].any()


def test_dyadic_pyramid_of_finite_values_past_half_the_largest_double_is_finite():
    # 0.5 * (l + r) overflows at l = r = 1e308; only a heap whose root is not finite is recomputed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heap = dyadic_pyramid(np.full(8, 1e308))
        assert heap[0] == 0.0 and np.all(heap[1:] == 1e308)
        rows = np.array([[1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308], np.arange(8.0) / 3.0])
        batch = dyadic_pyramid(rows)
        assert batch[0, 1] == 2.5e307
        assert batch.tobytes() == np.stack([dyadic_pyramid(row) for row in rows]).tobytes()
    # the second row never overflowed and keeps the bits of 0.5 * (l + r)
    assert batch[1].tobytes() == dyadic_pyramid(rows[1]).tobytes()
    assert batch[1, 4:8].tobytes() == ((rows[1, ::2] + rows[1, 1::2]) * 0.5).tobytes()
