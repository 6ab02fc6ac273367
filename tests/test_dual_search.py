import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import penalty_feasible, reference_feasible, reference_project_lp_ball, unfused_feasible
from stablab import (
    DyadicInterval,
    GridFunction,
    GridSet,
    annihilator_pair,
    apply,
    dist_linf_to_lp_ball,
    duality_pairing,
    feasible,
    inner,
    make_instance,
    mask,
    min_constant,
    norm,
    project_lp_ball,
)
from stablab import dual_search
from stablab.dual_search import DENSE_MAX_N, FEAS_TOL, MAX_ITER, SupportError, _dual_bound, _measure, certified
from stablab.grid import power_mean
from stablab.harness import default_config, generate_corpus, make_operator, run_theorem2
from stablab.operators import adjoint, as_matrix, haar_transform, hilbert, identity_minus_mean


def test_make_instance_inside_ball_gives_zero_gaps():
    f = GridFunction([0.5, -0.25, 0.0, 0.125])
    inst = make_instance(f, make_operator("hilbert", 4), 10.0, 2)
    assert inst.r == 0.0 and inst.t == 0.0


def test_make_instance_worked_example():
    n = 64
    f = GridFunction.constant(2.0, n)
    inst = make_instance(f, make_operator("hilbert", n), 1.0, 2)
    assert inst.r == pytest.approx(2.0, abs=1e-10)
    assert inst.t == 0.0
    assert norm(inst.Tstar_f, np.inf) <= 1e-12  # adjoint kills constants


def test_make_instance_support_check():
    E = GridSet.from_interval(DyadicInterval(1, 0), 8)
    good = GridFunction([1.0, 2.0, 0.5, 1.0, 0, 0, 0, 0])
    inst = make_instance(good, make_operator("hilbert", 8), 1.0, 2, E)
    # the cold start is the sup-distance minimizer of f, zero off E
    assert inst.v0 == dist_linf_to_lp_ball(good, 1.0, 2).minimizer
    assert np.all(inst.v0.values[~E.membership] == 0.0)
    bad = GridFunction([1.0, 2.0, 0.5, 1.0, 0, 0, 0.1, 0])
    with pytest.raises(SupportError):
        make_instance(bad, make_operator("hilbert", 8), 1.0, 2, E)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
def test_make_instance_rejects_a_radius_that_is_not_positive_and_finite(s):
    # an infinite radius would otherwise give c* = 0, reported as "uncertified"
    f = GridFunction.constant(2.0, 8)
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        make_instance(f, make_operator("hilbert", 8), s, 2)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_make_instance_rejects_p_at_most_one(p):
    f = GridFunction.constant(2.0, 8)
    with pytest.raises(ValueError, match="finite and > 1"):
        make_instance(f, make_operator("hilbert", 8), 1.0, p)


GRAPH_OPERATORS = {
    "hilbert": lambda n: make_operator("hilbert", n),
    "hilbert_negated": lambda n: adjoint(make_operator("hilbert", n)),
    "haar_transform": lambda n: make_operator("haar_transform", n, seed=11),
    "identity_minus_mean": lambda n: make_operator("identity_minus_mean", n),
}


@pytest.mark.parametrize("n", [2, 8, DENSE_MAX_N, 2 * DENSE_MAX_N, 4 * DENSE_MAX_N])
@pytest.mark.parametrize("name", sorted(GRAPH_OPERATORS))
def test_graph_step_matches_dense_inverse(name, n):
    rng = np.random.default_rng(n)
    f = GridFunction(rng.standard_normal(n))
    inst = make_instance(f, GRAPH_OPERATORS[name](n), 0.5, 2)
    M = as_matrix(inst.Tstar)
    K = np.linalg.inv(np.eye(n) + M.T @ M)
    T, Ts = inst.appliers()
    v, w, x = (rng.standard_normal(n) for _ in range(3))
    np.testing.assert_allclose(T(x), M.T @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Ts(x), M @ x, rtol=0, atol=1e-12)
    vg, wg = inst.graph_step(v, w)
    vg_ref = K @ (v + M.T @ w)
    np.testing.assert_allclose(vg, vg_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wg, M @ vg_ref, rtol=0, atol=1e-12)


def _mixture_instance(kind, n, with_support, p=2):
    E = GridSet.from_interval(DyadicInterval(1, 0), n) if with_support else None
    f = generate_corpus(default_config(n=n, corpus_counts=(("mixture", 1),)), E)[0][1]
    return make_instance(f, make_operator(kind, n, seed=7), 1.0, p, E)


def _bisection_calls(inst, monkeypatch, tol):
    """min_constant's result, and the (c, warm start) of every feasible call it made."""
    calls = []

    def recording_feasible(inst_, c, x0=None):
        calls.append((c, None if x0 is None else x0.copy()))
        return feasible(inst_, c, x0=x0)

    with monkeypatch.context() as patch:
        patch.setattr("stablab.dual_search.feasible", recording_feasible)
        res = min_constant(inst, tol=tol)
    return res, calls


def _dominates(inst, c, out, ref):
    """The extrapolated loop against the plain averaged one: feasible wherever
    the reference is, with a certified witness, and ends no later."""
    assert out.is_feasible or not ref.is_feasible
    if out.is_feasible:
        assert certified(inst, c, out.v)
    assert out.iterations <= ref.iterations


@pytest.mark.parametrize("with_support", [False, True])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N, 2 * DENSE_MAX_N])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform"])
def test_feasible_dominates_reference_loop(kind, n, with_support, monkeypatch):
    inst = _mixture_instance(kind, n, with_support)
    res, calls = _bisection_calls(inst, monkeypatch, tol=0.1)
    # the reference loop at every (c, warm start) the bisection visited
    for c, x0 in calls:
        _dominates(inst, c, feasible(inst, c, x0=x0), reference_feasible(inst, c, x0=x0))
    # the whole bisection with the reference loop swapped in: its bound is 0, so
    # its bracket never jumps, and no weak-duality bound passes its certified c*
    with monkeypatch.context() as patch:
        patch.setattr("stablab.dual_search.feasible", reference_feasible)
        ref = min_constant(inst, tol=0.1)
    assert res.status == ref.status == "certified"
    assert res.c_lower <= ref.c_star
    assert res.iterations <= ref.iterations and res.flagged <= ref.flagged
    tiny = 1e-3 * norm(inst.f, 2) / inst.s
    cases = (
        (1.05 * ref.c_star, MAX_ITER, "feasible"),
        (tiny, MAX_ITER, "infeasible"),
        (0.9 * ref.c_star, 25, "inconclusive"),
    )
    for c, budget, ref_status in cases:
        with monkeypatch.context() as patch:
            patch.setattr("stablab.dual_search.MAX_ITER", budget)
            out = feasible(inst, c)
            ref_out = reference_feasible(inst, c)
        assert ref_out.status == ref_status and ref_out.iterations > 1
        _dominates(inst, c, out, ref_out)
    # far below c*, the dual bound certifies "infeasible" on the first check
    assert feasible(inst, tiny).iterations == 1


def test_feasible_dominates_reference_loop_at_p3(monkeypatch):
    inst = _mixture_instance("hilbert", 8, False, p=3)
    c = 0.2 * norm(inst.f, 3) / inst.s
    monkeypatch.setattr("stablab.dual_search.MAX_ITER", 40)
    out = feasible(inst, c)
    ref = reference_feasible(inst, c)
    assert ref.status == "inconclusive"
    _dominates(inst, c, out, ref)


def test_fixed_point_is_checked_before_stagnation():
    # f = 2, s = 1: every projection can agree at once, so the step vanishes on
    # a point of the intersection, which must come back "feasible"
    inst = make_instance(GridFunction.constant(2.0, 64), hilbert(64), 1.0, 2)
    exits = []
    for c in (0.7, 0.75, 0.8, 0.9):
        out = feasible(inst, c)
        assert out.is_feasible, c
        assert certified(inst, c, out.v)
        exits.append(out.iterations)
    assert any(k % 5 != 1 for k in exits), exits  # found between the check iterations
    assert min_constant(inst, tol=1e-3).c_star == pytest.approx(2.0 / 3.0, rel=1e-3)


def _bound_by_hand(inst, a, b):
    """The weak-duality bound from (a, b), through the public grid algebra."""
    f = inst.f
    a, b = GridFunction(a), GridFunction(b)
    z = a + apply(adjoint(inst.Tstar), b)
    zE = z if inst.support is None else mask(z, inst.support)
    q = inst.p / (inst.p - 1.0)
    denom = inst.r * norm(a, 1) + (inst.t + inst.r) * norm(b, 1) + inst.s * norm(zE, q)
    return abs(inner(z, f)) / denom


def _certified_upper(inst):
    """A directly certified constant: c* from the bisection at p = 2, the best
    of the witnesses lam f and the sup-distance minimizer otherwise."""
    if inst.p == 2.0:
        res = min_constant(inst, tol=0.05)
        assert res.status == "certified"
        return res.c_star
    v0 = dist_linf_to_lp_ball(inst.f, inst.s, inst.p).minimizer
    if inst.support is not None:
        v0 = mask(v0, inst.support)
    best = math.inf
    for v in [inst.f * lam for lam in np.linspace(0.0, 1.0, 21)] + [v0]:
        c = max(
            norm(v, inst.p) / inst.s,
            norm(inst.f - v, np.inf) / inst.r,
            norm(inst.Tstar_f - apply(inst.Tstar, v), np.inf) / (inst.t + inst.r),
        )
        assert certified(inst, c, v)
        best = min(best, c)
    return best


@functools.lru_cache(maxsize=None)
def _instance_and_upper(kind, n, with_support, p):
    inst = _mixture_instance(kind, n, with_support, p)
    return inst, _certified_upper(inst)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("with_support", [False, True])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N, 2 * DENSE_MAX_N])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scales=st.tuples(*[st.sampled_from([0.0, 1e-3, 1.0, 1e3])] * 2).filter(any),
    pulls=st.tuples(*[st.sampled_from([0.0, 1.0, 10.0])] * 2),
)
def test_dual_bound_never_exceeds_a_certified_constant(kind, n, with_support, p, seed, scales, pulls):
    inst, upper = _instance_and_upper(kind, n, with_support, p)
    rng = np.random.default_rng(seed)
    # random pairs, pulled towards the signs of f and T*f to make the bound bite
    a = scales[0] * (rng.standard_normal(n) + pulls[0] * np.sign(inst.f.values))
    b = scales[1] * (rng.standard_normal(n) + pulls[1] * np.sign(inst.Tstar_f.values))
    bound = _dual_bound(inst, a, b)
    assert bound == pytest.approx(_bound_by_hand(inst, a, b), rel=1e-9)
    assert bound <= upper * (1 + 1e-9)


@pytest.mark.parametrize("with_support", [False, True])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N, 2 * DENSE_MAX_N])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform"])
def test_every_early_exit_carries_a_bound_above_the_accepting_constant(kind, n, with_support, monkeypatch):
    inst = _mixture_instance(kind, n, with_support)
    bounds = []

    def recording(inst_, a, b):
        bounds.append((a.copy(), b.copy(), _dual_bound(inst_, a, b)))
        return bounds[-1][2]

    monkeypatch.setattr("stablab.dual_search._dual_bound", recording)
    res = min_constant(inst, tol=0.05)
    assert res.status == "certified"
    dust = 1e-12 * max(1.0, norm(inst.f, np.inf))
    early = 0
    for c in np.geomspace(1e-3, 0.98, 12) * res.c_star:
        bounds.clear()
        out = feasible(inst, c)
        ref = reference_feasible(inst, c)
        _dominates(inst, c, out, ref)
        if not out.is_feasible and out.iterations < ref.iterations:
            # the exit rests on the last bound, taken at the exit's own iteration
            early += 1
            a, b, bound = bounds[-1]
            assert len(bounds) == (out.iterations + 4) // 5
            c_accept = (1 + FEAS_TOL) * (c + dust / min(inst.s, inst.r, inst.t + inst.r))
            assert bound > c_accept
            assert bound == pytest.approx(_bound_by_hand(inst, a, b), rel=1e-9)
            # weak duality: no bound passes the certified upper end
            assert bound <= res.c_star * (1 + 1e-9)
    assert early >= 6


@pytest.mark.parametrize("with_support", [False, True])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform"])
def test_c_lower_is_the_largest_bound_the_feasible_calls_returned(kind, n, with_support, monkeypatch):
    inst = _mixture_instance(kind, n, with_support)
    bounds = []
    returned = []

    def recording_bound(inst_, a, b):
        bound = _dual_bound(inst_, a, b)
        bounds.append((a.copy(), b.copy(), bound))
        return bound

    def recording_feasible(inst_, c, x0=None):
        start = len(bounds)
        out = feasible(inst_, c, x0=x0)
        # each call hands back the largest bound it took, 0.0 when it took none
        assert out.bound == max((bound for _, _, bound in bounds[start:]), default=0.0)
        returned.append(out.bound)
        return out

    monkeypatch.setattr("stablab.dual_search._dual_bound", recording_bound)
    monkeypatch.setattr("stablab.dual_search.feasible", recording_feasible)
    res = min_constant(inst, tol=0.05)
    assert res.status == "certified"
    assert returned and max(returned) > 0.0
    assert res.c_lower == max(returned) * (1 - 1e-9)
    assert res.c_lower <= res.c_star
    for a, b, bound in bounds:
        if a.any() or b.any():
            assert bound == pytest.approx(_bound_by_hand(inst, a, b), rel=1e-9)
        else:
            assert bound == 0.0  # the zero pair proves nothing


def _report_row(label, kind, s):
    """A row of the default theorem-2 campaign (the dual rows of `stablab report`) and its tol."""
    cfg = default_config()
    corpus = dict(generate_corpus(replace(cfg, corpus_counts=tuple((k, 1) for k, _ in cfg.corpus_counts))))
    return make_instance(corpus[label], make_operator(kind, cfg.n, cfg.seed), s, cfg.p), cfg.dual_tol


def test_the_certified_bracket_drives_the_bisection(monkeypatch):
    # row 13 of the campaign, where the bounds skip most midpoints: the bisection
    # on verdicts alone spends 3,228 iterations here, mostly in stagnating calls
    inst, tol = _report_row("steps:0", "haar_transform", 1.0)
    calls = []

    def recording_feasible(inst_, c, x0=None):
        out = feasible(inst_, c, x0=x0)
        calls.append((c, out))
        return out

    monkeypatch.setattr("stablab.dual_search.feasible", recording_feasible)
    res = min_constant(inst, tol=tol)
    assert res.status == "certified"
    lo, hi, c_lower, jumps = 0.0, norm(inst.f, inst.p) / inst.s, 0.0, 0
    for c, out in calls:
        low = max(lo, c_lower)
        # the loop was still running, and evaluates the middle of the certified bracket
        assert hi - low > tol * hi
        assert low < c < hi and c == 0.5 * (low + hi)
        jumps += c_lower > lo
        if out.is_feasible:
            hi = c
        else:
            lo = c
        c_lower = max(c_lower, out.bound * (1 - 1e-9))
    # it ends at the first point where the bracket is within tol
    assert hi - max(lo, c_lower) <= tol * hi
    assert (res.c_star, res.c_lower) == (hi, c_lower)
    assert res.c_lower <= res.c_star
    assert jumps > 0
    assert res.iterations <= 300


def test_min_constant_ends_below_the_spacing_of_the_doubles(monkeypatch):
    # the instance of `stablab dual` at its defaults: the bracket closes down to
    # adjacent doubles, whose midpoint rounds onto hi, where feasible says yes again
    cfg = default_config()
    inst = make_instance(generate_corpus(cfg)[0][1], make_operator(cfg.dual_operators[0], cfg.n, cfg.seed), 1.0, cfg.p)
    calls = []

    def counting_feasible(inst_, c, x0=None):
        calls.append(c)
        assert len(calls) <= 200, f"min_constant is still calling feasible, at c = {c!r}"
        return feasible(inst_, c, x0=x0)

    monkeypatch.setattr("stablab.dual_search.feasible", counting_feasible)
    res = min_constant(inst, tol=1e-300)
    assert res.status == "certified"
    assert res.c_lower <= res.c_star
    assert len(calls) == len(set(calls))  # no constant is tried twice


def test_feasible_rejects_nonpositive_constant():
    f = GridFunction.constant(2.0, 8)
    inst = make_instance(f, make_operator("hilbert", 8), 1.0, 2)
    with pytest.raises(ValueError):
        feasible(inst, 0.0)


def test_feasible_large_constant_soft_threshold_witness():
    # the shrunk near-minimizer is itself a witness once c covers its gaps;
    # verified directly rather than through the solver
    n = 32
    rng = np.random.default_rng(5)
    f = GridFunction(rng.standard_normal(n) * 3.0)
    s = 0.4 * norm(f, 2)
    inst = make_instance(f, make_operator("hilbert", n), s, 2)
    v = GridFunction(np.sign(f.values) * np.maximum(np.abs(f.values) - inst.r / 2.0, 0.0))
    c = max(
        norm(v, 2) / inst.s,
        norm(f - v, np.inf) / inst.r,
        norm(inst.Tstar_f - apply(inst.Tstar, v), np.inf) / (inst.t + inst.r),
    )
    assert certified(inst, c * (1 + 1e-9), v)
    out = feasible(inst, c * (1 + 1e-6))
    assert out.is_feasible
    assert certified(inst, c * (1 + 1e-6), out.v)


def test_feasible_tiny_constant_infeasible():
    f = GridFunction.constant(2.0, 16)
    inst = make_instance(f, make_operator("hilbert", 16), 1.0, 2)
    out = feasible(inst, 1e-3)
    assert out.status == "infeasible"


def test_min_constant_degenerate_returns_f():
    f = GridFunction([0.5, -0.25, 0.0, 0.125])
    inst = make_instance(f, make_operator("hilbert", 4), 10.0, 2)
    res = min_constant(inst)
    assert res.c_star <= 1.0
    assert res.c_lower == res.c_star  # r = 0 pins v = f: c* is exact
    assert res.v == f
    assert res.status == "certified"


def test_min_constant_worked_instance():
    # f = 2, s = 1, p = 2: r = 2, t = 0; the cheapest v is the constant
    # 2 - 2c with norm 2 - 2c <= c, so the true optimum is c = 2/3
    n = 64
    f = GridFunction.constant(2.0, n)
    inst = make_instance(f, make_operator("hilbert", n), 1.0, 2)
    res = min_constant(inst, tol=1e-3)
    assert res.status == "certified"
    assert res.c_star <= 1.0
    assert res.c_star == pytest.approx(2.0 / 3.0, rel=5e-3)
    assert certified(inst, res.c_star, res.v)


def test_min_constant_certifies_on_random_instances(rng):
    n = 64
    for kind in ("hilbert", "haar_transform"):
        T = make_operator(kind, n, seed=2)
        for _ in range(3):
            f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n) / 2))
            f = f * (1.0 / norm(f, 1))
            inst = make_instance(f, T, 0.35 * norm(f, 2), 2)
            res = min_constant(inst, tol=1e-2)
            assert res.status == "certified"
            assert res.res_p <= res.c_star * (1 + 1e-6)
            assert res.res_inf <= res.c_star * (1 + 1e-6)
            assert res.res_Tinf <= res.c_star * (1 + 1e-6)


def test_feasibility_monotone_in_c(rng):
    n = 32
    f = GridFunction(rng.standard_normal(n) * 2.0)
    f = f * (1.0 / norm(f, 1))
    inst = make_instance(f, make_operator("hilbert", n), 0.3 * norm(f, 2), 2)
    res = min_constant(inst, tol=1e-2)
    for factor in (1.1, 1.5, 2.5, 4.0):
        out = feasible(inst, res.c_star * factor)
        assert out.is_feasible, factor


def test_support_mode_witness_vanishes_off_E(rng):
    n = 64
    E = GridSet.from_interval(DyadicInterval(1, 0), n)
    values = np.where(E.membership, rng.standard_normal(n) * np.exp(rng.standard_normal(n) / 2), 0.0)
    f = GridFunction(values / np.abs(values).mean())
    inst = make_instance(f, make_operator("hilbert", n), 0.3 * norm(f, 2), 2, support=E)
    res = min_constant(inst, tol=1e-2)
    assert res.status == "certified"
    assert np.all(res.v.values[~E.membership] == 0.0)


def test_penalty_oracle_agreement_small():
    # full 100-instance campaign lives in the acceptance suite
    rng = np.random.default_rng(99)
    n = 8
    for i in range(10):
        kind = ("hilbert", "haar_transform")[i % 2]
        T = make_operator(kind, n, seed=i)
        f = GridFunction(rng.standard_normal(n) * 2.0)
        f = f * (1.0 / norm(f, 1))
        inst = make_instance(f, T, 0.4 * norm(f, 2), 2)
        res = min_constant(inst, tol=1e-2)
        for c, expect in ((1.3 * res.c_star, True), (0.7 * res.c_star, False)):
            ours = feasible(inst, c).is_feasible
            oracle = penalty_feasible(inst, c)
            assert ours == oracle == expect, (i, kind, c)


def test_annihilator_zero():
    T = make_operator("hilbert", 8)
    a, b = annihilator_pair(GridFunction.zeros(8), T)
    assert a == GridFunction.zeros(8) and b == GridFunction.zeros(8)


def test_annihilation_identity(rng):
    n = 64
    for kind in ("hilbert", "haar_transform", "identity_minus_mean"):
        T = make_operator(kind, n, seed=4)
        for _ in range(100):
            beta = GridFunction(rng.standard_normal(n))
            g = GridFunction(rng.standard_normal(n))
            pair = annihilator_pair(beta, T)
            assert abs(duality_pairing((g, apply(T, g)), pair)) <= 1e-9


def test_annihilator_hilbert_sine_mode():
    n = 64
    x = np.arange(n) / n
    beta = GridFunction(np.sin(2 * np.pi * x))
    T = make_operator("hilbert", n)
    alpha, back = annihilator_pair(beta, T)
    # -T* beta = H beta = -cos for the sine mode
    assert norm(alpha - GridFunction(-np.cos(2 * np.pi * x)), np.inf) <= 1e-10
    assert back == beta


def test_pairing_unit_probes_and_bilinearity(rng):
    e0 = GridFunction([1.0, 0.0])
    e1 = GridFunction([0.0, 1.0])
    assert duality_pairing((e0, e1), (e0, e1)) == pytest.approx(1.0)
    assert duality_pairing((e0, e1), (e1, e0)) == pytest.approx(0.0)
    x1, x2, y1, y2, z1, z2 = (GridFunction(rng.standard_normal(8)) for _ in range(6))
    lhs = duality_pairing((x1 + z1, x2 + z2), (y1, y2))
    rhs = duality_pairing((x1, x2), (y1, y2)) + duality_pairing((z1, z2), (y1, y2))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_project_lp_ball_general_p(rng):
    for p in (1.5, 2.0, 3.0):
        for _ in range(10):
            x = rng.standard_normal(16) * 2.0
            radius = float(rng.uniform(0.1, 1.0))
            y = project_lp_ball(x, radius, p)
            assert float(np.mean(np.abs(y) ** p)) ** (1 / p) <= radius * (1 + 1e-9)
            inside = project_lp_ball(y, radius * 1.01, p)
            assert np.allclose(inside, y)
            # projection moves no farther than any feasible competitor
            z = project_lp_ball(rng.standard_normal(16), radius, p)
            assert np.linalg.norm(x - y) <= np.linalg.norm(x - z) + 1e-9


def test_project_lp_ball_p2_extreme_magnitudes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = project_lp_ball(np.array([1e200, 1e200]), 1.0, 2)
    np.testing.assert_allclose(big, [1.0, 1.0], rtol=1e-12)
    tiny = project_lp_ball(np.array([1e-200, 0.0]), 1e-205, 2)
    np.testing.assert_allclose(tiny, [np.sqrt(2.0) * 1e-205, 0.0], rtol=1e-12)
    # normal magnitudes keep the direct arithmetic
    x = np.array([3.0, -4.0, 0.5, 2.0])
    assert project_lp_ball(x, 1.0, 2).tobytes() == (x * (1.0 / np.sqrt(np.mean(x * x)))).tobytes()


@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
def test_project_lp_ball_general_p_extreme_magnitudes(p, rng):
    with np.errstate(over="raise", under="ignore"):
        np.testing.assert_allclose(project_lp_ball(np.array([1e200, 1e200]), 1.0, p), [1.0, 1.0], rtol=1e-12)
        tiny = project_lp_ball(np.array([1e-200, 0.0]), 1e-205, p)
        np.testing.assert_allclose(tiny, [2.0 ** (1 / p) * 1e-205, 0.0], rtol=1e-12)
        x = rng.standard_normal(16) * 2.0
        assert project_lp_ball(x * 1e200, 1e201 * np.abs(x).max(), p).tobytes() == (x * 1e200).tobytes()
        # the projection commutes with scaling: 1e+-200 inputs give the normal-scale answer
        for radius in (0.1, 0.5):
            y = project_lp_ball(x, radius, p)
            for scale in (1e200, 1e-200):
                np.testing.assert_allclose(project_lp_ball(x * scale, radius * scale, p) / scale, y, rtol=1e-9, atol=1e-12)


def test_project_lp_ball_agrees_with_the_reference_at_unit_scale(rng):
    for p in (1.5, 3.0):
        for _ in range(5):
            x = rng.standard_normal(16) * 2.0
            radius = float(rng.uniform(0.1, 1.0))
            ref = reference_project_lp_ball(x, radius, p)
            assert np.abs(project_lp_ball(x, radius, p) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "x, radius, p",
    [
        (np.array([3.0, -1.0, 0.5, 2.0]) * 1e23, 1e23, 3.0),
        (np.array([3.0, -1.0, 0.5, 2.0]) * 1e-47, 1e-47, 1.5),
    ],
)
def test_project_lp_ball_lands_on_the_sphere_at_every_scale(x, radius, p):
    y = project_lp_ball(x, radius, p)
    assert power_mean(np.abs(y), p) / radius == pytest.approx(1.0, rel=0, abs=1e-12)


@settings(max_examples=100)
@given(
    p=st.floats(1.0, 64.0, exclude_min=True),
    n=st.integers(2, 256),
    magnitude=st.floats(-150.0, 150.0),
    # the variational inequality is checked relative to |x - y|, which shrinks to
    # the rounding of y as x nears the sphere: outside draws keep 1% away from it
    ratio=st.one_of(st.floats(0.01, 0.99), st.floats(1.0, 100.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_lp_ball_is_the_projection(p, n, magnitude, ratio, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 10.0**magnitude
    size = power_mean(np.abs(x), p)
    radius = size * ratio
    y = project_lp_ball(x, radius, p)
    if size <= radius:
        assert y.tobytes() == x.tobytes()
        return
    assert power_mean(np.abs(y), p) / radius == pytest.approx(1.0, rel=0, abs=1e-12)
    assert np.all((y == 0) | (np.sign(y) == np.sign(x)))
    assert np.all(np.abs(y) <= np.abs(x) * (1 + 1e-15))
    # in units of the radius, so that the inner products stay in the normal range
    xu, yu = x / radius, y / radius
    for _ in range(5):
        w = rng.standard_normal(n)
        zu = w * (rng.uniform() / power_mean(np.abs(w), p))
        assert (xu - yu) @ (zu - yu) <= 1e-9 * np.linalg.norm(xu - yu) * np.linalg.norm(zu - yu)
    radial = xu * (radius / size)
    assert np.linalg.norm(xu - yu) <= np.linalg.norm(xu - radial) * (1 + 1e-12)


def test_certify_p_term_survives_overflow():
    inst = _mixture_instance("hilbert", 8, False, p=3)
    v = inst.f.values * 1e110  # |v|^3 overflows
    Tsv = inst.apply_tstar(v)
    dust = 1e-12 * max(1.0, norm(inst.f, np.inf))
    sizes_and_bounds = (
        (norm(GridFunction(v), 3), inst.s),
        (norm(inst.f - GridFunction(v), np.inf), inst.r),
        (norm(inst.Tstar_f - GridFunction(Tsv), np.inf), inst.t + inst.r),
    )
    expect = max((size - bound - dust) / max(bound, dust) for size, bound in sizes_and_bounds)
    with np.errstate(over="ignore"):
        got = _measure(inst, 1.0, v)[0]
    assert np.isfinite(got)
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("with_support", [False, True])
def test_residuals_are_the_witness_norms(with_support):
    # T* v by the instance's own applier: at n <= DENSE_MAX_N a dense matvec, whose bits differ from apply's
    inst = _mixture_instance("haar_transform", 64, with_support)
    res = min_constant(inst, tol=1e-2)
    Tsv = GridFunction(inst.apply_tstar(res.v.values))
    assert res.res_p == norm(res.v, inst.p) / inst.s
    assert res.res_inf == norm(inst.f - res.v, np.inf) / inst.r
    assert res.res_Tinf == norm(inst.Tstar_f - Tsv, np.inf) / (inst.t + inst.r)


def test_result_serialization():
    f = GridFunction.constant(2.0, 16)
    inst = make_instance(f, make_operator("hilbert", 16), 1.0, 2)
    res = min_constant(inst, tol=1e-2)
    obj = json.loads(res.to_json())
    assert set(obj) == {"c_star", "c_lower", "residuals", "iterations", "status", "flagged"}
    assert 0.0 < obj["c_lower"] <= obj["c_star"]
    assert set(obj["residuals"]) == {"p", "inf", "T_inf"}


# ---------------------------------------------------------------------------
# the stacked loop, the shared dense matrix and scale covariance
# ---------------------------------------------------------------------------


def _same_outcome(out, ref):
    assert (out.status, out.iterations) == (ref.status, ref.iterations)
    assert np.float64(out.bound).tobytes() == np.float64(ref.bound).tobytes()
    assert (out.v is None) == (ref.v is None)
    if out.v is not None:
        assert out.v.values.tobytes() == ref.v.values.tobytes()


def _gaussian_instance(kind, n, with_support, p=2):
    """A Gaussian draw at s = 0.35 norm(f, 2): bisections with calls of hundreds of iterations."""
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) * 3.0
    E = None
    if with_support:
        E = GridSet.from_interval(DyadicInterval(1, 0), n)
        f[~E.membership] = 0.0
    f = GridFunction(f)
    return make_instance(f, make_operator(kind, n, seed=7), 0.35 * norm(f, 2), p, E)


@pytest.mark.parametrize("with_support", [False, True])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N, 2 * DENSE_MAX_N])
@pytest.mark.parametrize("kind", ["hilbert", "haar_transform", "identity_minus_mean"])
def test_stacked_loop_is_the_unfused_loop_bit_for_bit(kind, n, with_support, monkeypatch):
    inst = _gaussian_instance(kind, n, with_support)
    assert norm(inst.f, np.inf) >= 1.0
    _, calls = _bisection_calls(inst, monkeypatch, tol=3e-3)
    assert any(x0 is None for _, x0 in calls) and any(x0 is not None for _, x0 in calls)
    for c, x0 in calls:
        _same_outcome(feasible(inst, c, x0=x0), unfused_feasible(inst, c, x0=x0))


def test_stacked_loop_is_the_unfused_loop_at_p3(monkeypatch):
    inst = _gaussian_instance("hilbert", 8, False, p=3)
    hi = norm(inst.f, inst.p) / inst.s
    monkeypatch.setattr("stablab.dual_search.MAX_ITER", 40)
    cold = feasible(inst, 0.198 * hi)
    assert cold.is_feasible and cold.iterations > 30
    cases = [(0.198 * hi, None), (0.16 * hi, None), (0.19 * hi, cold.v.values), (0.25 * hi, cold.v.values)]
    # at the 40-iteration budget, and at one the first case runs out of
    for budget in (40, 20):
        monkeypatch.setattr("stablab.dual_search.MAX_ITER", budget)
        for c, x0 in cases:
            _same_outcome(feasible(inst, c, x0=x0), unfused_feasible(inst, c, x0=x0))
    assert feasible(inst, 0.198 * hi).status == "inconclusive"


def _counting_as_matrix(monkeypatch):
    built = []

    def counting(T):
        built.append(T)
        return as_matrix(T)

    monkeypatch.setattr("stablab.dual_search.as_matrix", counting)
    _clear_dense_caches()
    return built


def _clear_dense_caches():
    dual_search._appliers.cache_clear()
    dual_search._dense_matrix.cache_clear()


def test_dense_matrix_is_built_once_per_operator(monkeypatch):
    built = _counting_as_matrix(monkeypatch)
    cfg = default_config()
    run_theorem2(cfg)
    assert len(built) == len(cfg.dual_operators) == 2
    _clear_dense_caches()


def test_no_dense_matrix_above_dense_max_n(monkeypatch):
    built = _counting_as_matrix(monkeypatch)
    res = min_constant(_mixture_instance("hilbert", 2 * DENSE_MAX_N, False), tol=0.1)
    assert res.status == "certified"
    assert built == []


@pytest.mark.parametrize("kind", ["hilbert", "haar_transform", "identity_minus_mean"])
def test_dense_matrix_is_shared_read_only_and_exact(kind):
    # two instances on separately built operators share one matrix
    insts = [_mixture_instance(kind, 64, with_support) for with_support in (False, True)]
    M, M2 = (inst.appliers()[1].__self__ for inst in insts)
    assert M is M2
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert M.tobytes() == as_matrix(insts[0].Tstar).tobytes()


SCALE_CASES = [
    (hilbert(8), 2, None),
    (haar_transform(8, [1, -1, 1, 1, -1, 1, -1]), 2, None),
    (hilbert(8), 2, GridSet(np.array([1, 1, 1, 0, 0, 1, 1, 1], dtype=bool))),
    (identity_minus_mean(8), 3, None),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", range(len(SCALE_CASES)))
def test_min_constant_is_scale_covariant_at_extreme_magnitudes(case):
    T, p, support = SCALE_CASES[case]
    f = np.array([3.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.5])
    unit = min_constant(make_instance(GridFunction(f), T, 0.5, p, support))
    assert unit.status == "certified"
    for k in [2.0**-990, 1e-300, 1e-150, 2.0**-500, 2.0**500, 1e160, 1e300, 2.0**990]:
        res = min_constant(make_instance(GridFunction(f * k), T, 0.5 * k, p, support))
        assert res.status == "certified", k
        assert res.c_star == pytest.approx(unit.c_star, rel=1e-9), k
        assert res.c_lower == pytest.approx(unit.c_lower, rel=1e-9), k
        assert res.iterations == unit.iterations, k
        assert (res.res_inf, res.res_Tinf) == pytest.approx((unit.res_inf, unit.res_Tinf), rel=1e-9), k
        np.testing.assert_allclose(res.v.values / k, unit.v.values, rtol=1e-9, atol=1e-9 * norm(unit.v, np.inf))
