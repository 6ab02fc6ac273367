import json
import math

import numpy as np
import pytest

from stablab import (
    DyadicInterval,
    GridFunction,
    apply,
    bourgain_construct,
    dist_l1_to_lp_ball,
    graph_approx_sequence,
    kclosed_redecompose,
    norm,
)
from stablab.cz import ConsistencyError, cz_decompose
from stablab.harness import default_config, generate_corpus, make_operator
from stablab.stability import DEGENERATE_TOL


def test_inside_ball_returns_f_with_zero_residuals():
    f = GridFunction([0.5, -0.25, 0.125, 0.0])
    T = make_operator("hilbert", 4)
    u, rep = bourgain_construct(f, T, 10.0, 2)
    assert u == f
    assert rep.degenerate
    assert rep.resid_l1 == 0.0 and rep.resid_T == 0.0
    assert rep.ratio_f == 0.0 and rep.ratio_T == 0.0
    assert rep.ratio_p <= 1.0


def test_worked_example_composes_distance_and_cz():
    # f = 8 on [0, 1/8) of an 8-cell grid, p = 2, s = 1: the clip level is
    # sqrt(8), the distance mass is a = 1 - 1/sqrt(2), the split level is
    # 1/a, and the stopping cube is again [0, 1/4)
    f = GridFunction([8.0, 0, 0, 0, 0, 0, 0, 0])
    T = make_operator("hilbert", 8)
    u, rep = bourgain_construct(f, T, 1.0, 2)
    a = (8.0 - math.sqrt(8.0)) / 8.0
    assert rep.a == pytest.approx(a, abs=1e-11)
    assert rep.lam == pytest.approx(1.0 / a, abs=1e-10)
    assert rep.cube_count == 1
    # u = u1 + g = (4 + sqrt(2), 4 - sqrt(2), 0, ...)
    assert u.values[0] == pytest.approx(4.0 + math.sqrt(2.0), abs=1e-10)
    assert u.values[1] == pytest.approx(4.0 - math.sqrt(2.0), abs=1e-10)
    assert np.all(u.values[2:] == 0.0)
    assert norm(u, 2) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-10)
    assert rep.ratio_f == pytest.approx(1.0, abs=1e-10)
    assert np.isfinite(rep.ratio_T)


def test_rejects_nonpositive_radius():
    f = GridFunction([1.0, 0.0])
    with pytest.raises(ValueError):
        bourgain_construct(f, make_operator("hilbert", 2), 0.0, 2)


def test_residual_identity_and_level_identity(rng):
    cfg = default_config(n=64, s_count=6)
    bound = 1.0 + 2.0 ** ((cfg.p - 1.0) / cfg.p)
    for label, f in generate_corpus(cfg):
        T = make_operator("hilbert", cfg.n, cfg.seed)
        for s in cfg.s_values():
            u, rep = bourgain_construct(f, T, s, cfg.p)
            # exact residual identity f - u = h
            assert rep.resid_l1 == pytest.approx(norm(f - u, 1), abs=1e-14)
            if rep.a > DEGENERATE_TOL:
                ident = rep.lam ** (cfg.p - 1.0) * rep.a
                assert ident == pytest.approx(rep.b**cfg.p, rel=1e-9)
            assert rep.ratio_p <= bound * (1 + 1e-9)
            assert rep.ratio_f <= 2.0 * (1 + 1e-9)


# b^p leaves the doubles where lam does not: it underflows at p = 40, s = 1e-12 on the
# default corpus's first function, and overflows at p = 80, s = 1e5 on a spike pair
LEVEL_RULE_CASES = pytest.mark.parametrize(
    "p, s, values",
    [(40.0, 1e-12, None), (80.0, 1e5, [1e10, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3e9])],
    ids=["b-to-the-p-underflows", "b-to-the-p-overflows"],
)


def _level_rule_input(values) -> GridFunction:
    return generate_corpus(default_config(n=8))[0][1] if values is None else GridFunction(values)


def _assert_level_identity(rep, p: float) -> None:
    assert 0.0 < rep.lam < math.inf
    # lam^(p-1) a = b^p, in logarithms
    lhs = (p - 1.0) * math.log(rep.lam) + math.log(rep.a)
    assert lhs == pytest.approx(p * math.log(rep.b), rel=1e-12)


@LEVEL_RULE_CASES
def test_construct_level_where_b_to_the_p_is_out_of_range(p, s, values):
    f = _level_rule_input(values)
    _, rep = bourgain_construct(f, make_operator("hilbert", f.n), s, p)
    # s < a puts lam below mean |u0|: the root cube is selected and the ratio_p bound does not apply
    u0 = f - dist_l1_to_lp_ball(f, s, p).minimizer
    assert cz_decompose(u0, rep.lam).cubes == (DyadicInterval(0, 0),)
    assert rep.degenerate
    _assert_level_identity(rep, p)


@LEVEL_RULE_CASES
def test_redecompose_level_where_b_to_the_p_is_out_of_range(p, s, values):
    f = _level_rule_input(values)
    T = make_operator("hilbert", f.n)
    Tf = apply(T, f)
    u1 = dist_l1_to_lp_ball(f, s, p).minimizer
    v1 = dist_l1_to_lp_ball(Tf, s, p).minimizer
    _, _, rep = kclosed_redecompose(f, T, (f - u1, Tf - v1, u1, v1), p)
    _assert_level_identity(rep, p)


@pytest.mark.parametrize(
    "p, s, values, got",
    # lam = b * (b/a)^(1/(p-1)) is about 1e-400 (below the doubles) and 1e400 (above them)
    [(2.0, 1e-200, None, "0.0"), (1.01, 1.0, [1.0001, 1.0001], "inf")],
    ids=["underflow", "overflow"],
)
def test_level_beyond_the_doubles_is_rejected(p, s, values, got):
    f = _level_rule_input(values)
    with pytest.raises(ValueError, match=f"decomposition level must be positive and finite, got {got}$"):
        bourgain_construct(f, make_operator("hilbert", f.n), s, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_exact_discrete_bounds_across_exponents(p, rng):
    cfg = default_config(n=64, p=p, s_count=5)
    bound = 1.0 + 2.0 ** ((p - 1.0) / p)
    for label, f in generate_corpus(cfg):
        T = make_operator("haar_transform", cfg.n, cfg.seed)
        for s in cfg.s_values():
            _, rep = bourgain_construct(f, T, s, p)
            assert rep.ratio_p <= bound * (1 + 1e-9)
            assert rep.ratio_f <= 2.0 * (1 + 1e-9)


def test_kclosed_degenerate_split():
    n = 16
    u = GridFunction(np.linspace(-1, 1, n))
    T = make_operator("haar_transform", n, 3)
    zero = GridFunction.zeros(n)
    Tu = apply(T, u)
    (h, Th), (w, Tw), rep = kclosed_redecompose(u, T, (zero, zero, u, Tu), 2)
    assert h == zero and w == u
    assert rep.degenerate


def test_kclosed_zero_ball_part_is_degenerate():
    # b = 0 < a: no level to split at, so the degenerate report comes back
    n = 16
    u = GridFunction(np.linspace(-1, 1, n))
    T = make_operator("haar_transform", n, 3)
    zero = GridFunction.zeros(n)
    Tu = apply(T, u)
    (h, Th), (w, Tw), rep = kclosed_redecompose(u, T, (u, Tu, zero, zero), 2)
    assert rep.a > 0.0 and rep.b == 0.0
    assert rep.degenerate and rep.lam == 0.0
    assert h == zero and w == u and Tw == Tu


def test_kclosed_rejects_inconsistent_split():
    n = 16
    u = GridFunction(np.linspace(-1, 1, n))
    T = make_operator("haar_transform", n, 3)
    bad = GridFunction.constant(1.0, n)
    Tu = apply(T, u)
    with pytest.raises(ConsistencyError):
        kclosed_redecompose(u, T, (bad, GridFunction.zeros(n), u, Tu), 2)


def test_kclosed_reproduces_construction():
    # a mean-zero dipole under the mean projection: Tf = f, so the two pieces
    # of the split agree and the matched (a, b) coincide with the
    # construction's own bookkeeping
    n = 64
    values = np.zeros(n)
    values[0], values[1] = n / 2.0, -n / 2.0
    f = GridFunction(values)
    T = make_operator("identity_minus_mean", n)
    s = 1.0
    p = 2.0
    u_constructed, rep = bourgain_construct(f, T, s, p)
    res_f = dist_l1_to_lp_ball(f, s, p)
    Tf = apply(T, f)
    res_Tf = dist_l1_to_lp_ball(Tf, s, p)
    u1 = res_f.minimizer
    v1 = res_Tf.minimizer
    u0 = f - u1
    v0 = Tf - v1
    assert norm(v0, 1) <= norm(u0, 1)  # precondition for exact reproduction
    assert norm(v1, p) <= s + 1e-12
    (h, Th), (w, Tw), rep2 = kclosed_redecompose(f, T, (u0, v0, u1, v1), p)
    # b agrees with s only up to the bisection bracket, so compare at 1e-9
    assert norm(w - u_constructed, np.inf) <= 1e-9
    assert norm(f - w - h, 1) <= 1e-14
    assert rep2.lam == pytest.approx(rep.lam, rel=1e-9)


def test_kclosed_holder_diagnostic_holds(rng):
    cfg = default_config(n=64, s_count=4)
    for label, f in generate_corpus(cfg):
        T = make_operator("hilbert", cfg.n, cfg.seed)
        Tf = apply(T, f)
        for s in cfg.s_values():
            u1 = dist_l1_to_lp_ball(f, s, cfg.p).minimizer
            v1 = dist_l1_to_lp_ball(Tf, s, cfg.p).minimizer
            (h, Th), (w, Tw), rep = kclosed_redecompose(
                f, T, (f - u1, Tf - v1, u1, v1), cfg.p
            )
            assert rep.holder_lhs <= rep.holder_rhs * (1 + 1e-9) + 1e-12
            for val in (rep.ratio_h, rep.ratio_w_p, rep.ratio_Tw_p, rep.ratio_Th):
                assert np.isfinite(val)


def test_kclosed_random_split_campaign_frozen(rng, frozen):
    cfg = default_config(n=256, s_count=3)
    worst = 0.0
    for label, f in generate_corpus(cfg):
        T = make_operator("hilbert", cfg.n, cfg.seed)
        Tf = apply(T, f)
        for s in cfg.s_values():
            # admissible random split: perturb the minimizing split by a
            # mean-zero piece so u0 + u1 = f still holds
            noise = GridFunction(0.1 * rng.standard_normal(cfg.n))
            u1 = dist_l1_to_lp_ball(f, s, cfg.p).minimizer + noise
            v1 = dist_l1_to_lp_ball(Tf, s, cfg.p).minimizer
            (h, Th), (w, Tw), rep = kclosed_redecompose(
                f, T, (f - u1, Tf - v1, u1, v1), cfg.p
            )
            for val in (rep.ratio_h, rep.ratio_w_p, rep.ratio_Tw_p, rep.ratio_Th):
                assert np.isfinite(val)
                worst = max(worst, val)
    frozen("kclosed_max_ratio", worst)


def test_graph_sequence_saturates():
    n = 32
    f = GridFunction(np.where(np.arange(n) < 1, float(n), 0.0))
    T = make_operator("hilbert", n)
    s_sat = norm(f, 2)
    seq = graph_approx_sequence(f, T, [s_sat, 2 * s_sat], 2)
    for fk in seq:
        assert fk == f
        assert norm(f - fk, 1) == 0.0
        assert norm(apply(T, f) - apply(T, fk), 1) == 0.0


def test_graph_sequence_requires_increasing_s():
    f = GridFunction([1.0, 0.0])
    with pytest.raises(ValueError):
        graph_approx_sequence(f, make_operator("hilbert", 2), [1.0, 1.0], 2)


def test_graph_sequence_residuals_controlled(rng, frozen):
    cfg = default_config(n=256)
    corpus = generate_corpus(cfg)
    worst_factor = 0.0
    for label, f in corpus:
        if not label.startswith(("spikes", "mixture")):
            continue
        T = make_operator("hilbert", cfg.n, cfg.seed)
        s_list = [1.0 * 2**k for k in range(6)]
        seq = graph_approx_sequence(f, T, s_list, cfg.p)
        resid = [norm(f - fk, 1) for fk in seq]
        resid_T = [norm(apply(T, f) - apply(T, fk), 1) for fk in seq]
        for series in (resid, resid_T):
            for prev, nxt in zip(series, series[1:]):
                if prev > 1e-14:
                    worst_factor = max(worst_factor, nxt / prev)
                else:
                    assert nxt <= 1e-12
        if s_list[-1] >= norm(f, cfg.p):
            assert resid[-1] == 0.0 and resid_T[-1] == 0.0
    frozen("graph_monotonicity_factor", worst_factor)


def test_report_serialization():
    f = GridFunction([8.0, 0, 0, 0, 0, 0, 0, 0])
    _, rep = bourgain_construct(f, make_operator("hilbert", 8), 1.0, 2)
    obj = json.loads(rep.to_json())
    for key in ("s", "a", "b", "c", "lam", "ratio_p", "ratio_f", "ratio_T"):
        assert key in obj
