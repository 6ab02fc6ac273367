import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ScaleError, brute_force_distance, reference_dist_l1_to_lp_ball, reference_dist_linf_to_lp_ball
from stablab import (
    GridFunction,
    dist_l1_to_lp_ball,
    dist_linf_to_lp_ball,
    norm,
)
from stablab.distance import FEAS_TOL
from stablab.grid import power_mean


def random_instance(rng, sizes=(2, 4)):
    n = int(rng.choice(sizes))
    f = GridFunction(rng.standard_normal(n) * rng.lognormal(0, 1))
    p = float(rng.choice([1.5, 2.0, 3.0]))
    s = float(rng.uniform(0.1, 1.3) * norm(f, p))
    return f, s, p


def test_l1_inside_ball_returns_f():
    f = GridFunction([0.5, -0.25, 0.0, 0.1])
    res = dist_l1_to_lp_ball(f, 10.0, 2)
    assert res.value == 0.0
    assert res.minimizer == f


def test_l1_worked_example_two_cells():
    # f = 2 on the left half of a two-cell grid, p = 2, s = 1:
    # the clip level solves tau / sqrt(2) = 1
    f = GridFunction([2.0, 0.0])
    res = dist_l1_to_lp_ball(f, 1.0, 2)
    assert res.threshold == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert res.value == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, abs=1e-11)
    assert norm(res.minimizer, 2) <= 1.0 + 1e-12


def test_linf_inside_ball_returns_f():
    f = GridFunction([0.5, -0.25, 0.0, 0.1])
    res = dist_linf_to_lp_ball(f, 10.0, 2)
    assert res.value == 0.0
    assert res.minimizer == f


def test_linf_worked_example_constant():
    f = GridFunction.constant(2.0, 8)
    res = dist_linf_to_lp_ball(f, 1.0, 2)
    assert res.value == pytest.approx(1.0, abs=1e-11)
    assert norm(res.minimizer, 2) <= 1.0 + 1e-12


def test_zero_radius_forces_zero_minimizer():
    f = GridFunction([1.0, -3.0])
    res = dist_l1_to_lp_ball(f, 0.0, 2)
    assert res.value == norm(f, 1) and res.minimizer == GridFunction.zeros(2)
    res = dist_linf_to_lp_ball(f, 0.0, 2)
    assert res.value == norm(f, np.inf) and res.minimizer == GridFunction.zeros(2)


def test_linf_radius_below_rounding_of_the_sup_is_quiet():
    # Newton reaches eps = max|f| to rounding, where every cell shrinks to 0
    # and a further step would be 0/0
    from stablab.harness import default_config, generate_corpus

    f = generate_corpus(default_config())[0][1]
    sup = norm(f, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dist_linf_to_lp_ball(f, sup * 1e-18, 2)
    assert res.value == sup
    assert res.minimizer == GridFunction.zeros(f.n)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_l1_radius_below_the_doubles_over_the_sup_is_quiet(p):
    # at s = 1e-310, |f| / s overflows for the five cells that the clip cuts, a warning the
    # suite's filter turns into a failure; the clip level is then the one they share
    f = GridFunction([1.0, -3.0, 0.5, 0.0, 2.0, 0.0, 0.0, 1.0])
    res = dist_l1_to_lp_ball(f, 1e-310, p)
    assert res.threshold == pytest.approx(1e-310 * (8 / 5) ** (1 / p), rel=1e-9)
    assert res.value == norm(f, 1)


def test_negative_radius_rejected():
    f = GridFunction([1.0, 0.0])
    with pytest.raises(ValueError):
        dist_l1_to_lp_ball(f, -1.0, 2)
    with pytest.raises(ValueError):
        dist_linf_to_lp_ball(f, -0.5, 2)
    for solver in (dist_l1_to_lp_ball, dist_linf_to_lp_ball):
        with pytest.raises(ValueError):
            solver(f, math.nan, 2)


def test_brute_force_zero_function():
    assert brute_force_distance(GridFunction.zeros(4), 1.0, 2, 1.0) == 0.0
    assert brute_force_distance(GridFunction.zeros(4), 0.0, 2, np.inf) == 0.0


def test_brute_force_scale_guard():
    with pytest.raises(ScaleError):
        brute_force_distance(GridFunction.zeros(16), 1.0, 2, 1.0)


def test_oracle_equivalence_l1(rng):
    for _ in range(100):
        f, s, p = random_instance(rng)
        if s <= 0:
            continue
        closed = dist_l1_to_lp_ball(f, s, p).value
        assert closed == pytest.approx(brute_force_distance(f, s, p, 1.0), abs=1e-6)


def test_oracle_equivalence_linf(rng):
    for _ in range(100):
        f, s, p = random_instance(rng)
        if s <= 0:
            continue
        closed = dist_linf_to_lp_ball(f, s, p).value
        assert closed == pytest.approx(brute_force_distance(f, s, p, np.inf), abs=1e-6)


def test_minimizer_structure(rng):
    # ambient L^1 minimizers are clips, ambient L^inf minimizers are shrinks
    for _ in range(20):
        f = GridFunction(rng.standard_normal(16) * 2.0)
        s = 0.4 * norm(f, 2)
        res1 = dist_l1_to_lp_ball(f, s, 2)
        clip = np.sign(f.values) * np.minimum(np.abs(f.values), res1.threshold)
        assert np.allclose(res1.minimizer.values, clip)
        resi = dist_linf_to_lp_ball(f, s, 2)
        soft = np.sign(f.values) * np.maximum(np.abs(f.values) - resi.threshold, 0.0)
        assert np.allclose(resi.minimizer.values, soft)


@pytest.mark.parametrize("solver,ambient", [(dist_l1_to_lp_ball, 1.0), (dist_linf_to_lp_ball, np.inf)])
def test_monotone_in_radius(solver, ambient, rng):
    f = GridFunction(rng.standard_normal(32))
    values = [solver(f, s, 2).value for s in np.linspace(0.0, 1.2 * norm(f, 2), 15)]
    for a, b in zip(values, values[1:]):
        assert b <= a * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("solver,ambient", [(dist_l1_to_lp_ball, 1.0), (dist_linf_to_lp_ball, np.inf)])
def test_lipschitz_in_f(solver, ambient, rng):
    for _ in range(25):
        f = GridFunction(rng.standard_normal(16))
        g = GridFunction(rng.standard_normal(16) * 0.3)
        s = 0.6 * norm(f, 2)
        gap = abs(solver(f, s, 2).value - solver(f + g, s, 2).value)
        assert gap <= norm(g, ambient) * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("solver", [dist_l1_to_lp_ball, dist_linf_to_lp_ball])
def test_positive_homogeneity(solver, rng):
    for _ in range(25):
        f = GridFunction(rng.standard_normal(16) * 3.0)
        s = 0.5 * norm(f, 2)
        lam = float(rng.uniform(0.2, 4.0))
        base = solver(f, s, 2).value
        scaled = solver(lam * f, lam * s, 2).value
        assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("sigma", [1e-200, 1e-20, 1e200])
@pytest.mark.parametrize("solver", [dist_l1_to_lp_ball, dist_linf_to_lp_ball])
def test_scale_covariance_far_from_unit_scale(solver, sigma, p):
    # the answer for (sigma f, sigma s) is sigma times the one for (f, s),
    # with no overflow on the way
    f = GridFunction([3.0, 1.0, 0.5, 0.0])
    unit = solver(f, 1.0, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = solver(f * sigma, sigma, p)
    assert scaled.value / sigma == pytest.approx(unit.value, rel=1e-9)
    assert scaled.threshold / sigma == pytest.approx(unit.threshold, rel=1e-9)
    assert norm(scaled.minimizer, p) <= sigma * (1 + FEAS_TOL)


@pytest.mark.parametrize("solver", [dist_l1_to_lp_ball, dist_linf_to_lp_ball])
@settings(max_examples=100)
@given(
    p=st.floats(1.0, 64.0, exclude_min=True),
    k=st.integers(1, 10),
    magnitude=st.floats(-150.0, 150.0),
    lam_exponent=st.floats(-3.0, 3.0),
    ratio=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_and_monotonicity_at_every_scale(solver, p, k, magnitude, lam_exponent, ratio, seed):
    rng = np.random.default_rng(seed)
    n = 2**k
    unit_f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)))
    unit_s = ratio * norm(unit_f, p)
    sigma = 10.0**magnitude
    f, s = sigma * unit_f, sigma * unit_s
    lam = 10.0**lam_exponent
    size = norm(f, 1.0 if solver is dist_l1_to_lp_ball else np.inf)  # the solver's ambient norm
    d = solver(f, s, p).value
    # the same draw at unit scale, so the magnitude itself is a scaling too
    assert abs(d - sigma * solver(unit_f, unit_s, p).value) <= 1e-8 * size
    assert abs(solver(lam * f, lam * s, p).value - lam * d) <= 1e-8 * lam * size
    assert solver(f, 1.5 * s, p).value <= d * (1 + 1e-9) + 1e-12 * size


@settings(max_examples=200)
@given(
    p=st.floats(1.0, 64.0, exclude_min=True),
    k=st.integers(1, 12),
    magnitude=st.floats(-150.0, 150.0),
    log_ratio=st.floats(-6.0, 0.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
# s / max|f| is about 1.4e-6 here, so (s / max|f|)^57 underflows: a clip level
# solved in units of max|f| would read 0
@example(p=57.0, k=1, magnitude=0.0, log_ratio=-5.85, seed=0)
def test_thresholds_are_exact_and_agree_with_the_bisection(p, k, magnitude, log_ratio, seed):
    rng = np.random.default_rng(seed)
    n = 2**k
    f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 10.0**magnitude)
    s = 10.0**log_ratio * norm(f, p)
    res = dist_l1_to_lp_ball(f, s, p)
    assert abs(power_mean(np.minimum(np.abs(f.values), res.threshold), p) / s - 1.0) <= 1e-12
    assert abs(res.value - reference_dist_l1_to_lp_ball(f, s, p).value) <= 1e-8 * res.value
    expect = reference_dist_linf_to_lp_ball(f, s, p).value
    assert abs(dist_linf_to_lp_ball(f, s, p).value - expect) <= 1e-8 * expect


@pytest.mark.parametrize("solver", [dist_l1_to_lp_ball, dist_linf_to_lp_ball])
def test_vanishing_iff_in_ball(solver, rng):
    for _ in range(25):
        f = GridFunction(rng.standard_normal(16))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        assert solver(f, norm(f, p), p).value == 0.0
        assert solver(f, 0.9 * norm(f, p), p).value > 0.0


@pytest.mark.parametrize("solver", [dist_l1_to_lp_ball, dist_linf_to_lp_ball])
def test_minimizer_always_feasible(solver, rng):
    for _ in range(50):
        f = GridFunction(rng.standard_normal(16) * rng.lognormal(0, 1))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        s = float(rng.uniform(0.05, 1.5)) * norm(f, p)
        res = solver(f, s, p)
        assert norm(res.minimizer, p) <= s * (1 + FEAS_TOL)
        ambient = 1.0 if solver is dist_l1_to_lp_ball else np.inf
        assert norm(f - res.minimizer, ambient) <= res.value * (1 + FEAS_TOL) + 1e-12


def test_result_serialization():
    f = GridFunction([2.0, 0.0])
    obj = json.loads(dist_l1_to_lp_ball(f, 1.0, 2).to_json())
    assert set(obj) == {"value", "threshold", "s", "p", "ambient"}
    assert obj["ambient"] == 1.0
    obj = json.loads(dist_linf_to_lp_ball(f, 1.0, 2).to_json())
    assert obj["ambient"] == "inf"


@pytest.mark.parametrize("magnitude", [2.0**-1070, 2.0**-1040, 1e-300, 1.0, 2.0**1000, 1e307])
def test_l1_distance_is_the_l1_norm_of_what_the_clip_removes(magnitude):
    # |f - clip(f)| is (|f| - tau)_+ cell by cell and both sides take the same power
    # mean, so the construction reads its mass off the distance, bit for bit; at
    # 1e307 the mass overflows the direct mean and at 2^-1070 it is subnormal
    rng = np.random.default_rng(11)
    for n in (2, 8, 256, 4096):
        values = rng.standard_normal(n) * np.exp(2.0 * rng.standard_normal(n))
        f = GridFunction(values / np.abs(values).max() * magnitude)
        for p in (1.5, 2.0, 3.0):
            for ratio in (0.01, 0.3, 0.9):
                s = ratio * norm(f, p)
                if s == 0.0:  # underflowed at 2^-1070
                    continue
                res = dist_l1_to_lp_ball(f, s, p)
                assert res.value == norm(f - res.minimizer, 1)
