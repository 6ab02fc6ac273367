"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line.  The campaign fixtures are shared across criteria so the whole gate
stays inside its runtime budgets.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import brute_force_distance, certified, penalty_feasible
from stablab import (
    DyadicInterval,
    GridFunction,
    GridSet,
    annihilator_pair,
    apply,
    bourgain_construct,
    cz_decompose,
    dist_l1_to_lp_ball,
    dist_linf_to_lp_ball,
    duality_pairing,
    feasible,
    graph_approx_sequence,
    inner,
    make_instance,
    min_constant,
    norm,
    verify_cz,
)
from stablab.harness import default_config, generate_corpus, make_operator
from stablab.operators import adjoint, hilbert, nyquist_free
from stablab.stability import DEGENERATE_TOL

KINDS = ("hilbert", "haar_transform", "identity_minus_mean")


@pytest.fixture(scope="module")
def theorem1_campaign():
    """Full corpus campaign: n=256, 3 operator kinds, 20-point radius sweep."""
    cfg = default_config()
    rows = []
    for label, f in generate_corpus(cfg):
        for kind in cfg.operators:
            T = make_operator(kind, cfg.n, cfg.seed)
            for s in cfg.s_values():
                _, rep = bourgain_construct(f, T, s, cfg.p)
                rows.append((label, kind, s, rep))
    return cfg, rows


@pytest.fixture(scope="module")
def theorem2_campaign():
    cfg = default_config()
    results = []
    for label, f in generate_corpus(
        default_config(corpus_counts=tuple((k, 1) for k, _ in cfg.corpus_counts))
    ):
        for kind in cfg.dual_operators:
            T = make_operator(kind, cfg.n, cfg.seed)
            for s in cfg.dual_s_values:
                inst = make_instance(f, T, s, cfg.p)
                results.append((label, kind, s, inst, min_constant(inst, tol=cfg.dual_tol)))
    return cfg, results


def test_criterion_1_distance_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(10001)
    checked = 0
    while checked < 200:
        n = int(rng.choice([2, 4]))
        f = GridFunction(rng.standard_normal(n) * rng.lognormal(0, 1))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        s = float(rng.uniform(0.05, 1.3) * norm(f, p))
        if s <= 0:
            continue
        closed_l1 = dist_l1_to_lp_ball(f, s, p).value
        closed_linf = dist_linf_to_lp_ball(f, s, p).value
        assert abs(closed_l1 - brute_force_distance(f, s, p, 1.0)) <= 1e-5
        assert abs(closed_linf - brute_force_distance(f, s, p, np.inf)) <= 1e-5
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: 200 oracle equivalences within 1e-5 ({elapsed:.1f}s)")


def test_criterion_2_cz_invariant_suite():
    start = time.time()
    rng = np.random.default_rng(10002)
    required = {
        "additivity",
        "mean_zero_on_cubes",
        "good_sup_bound",
        "cube_mass_bound",
        "good_l1_bound",
    }
    violations = 0
    for trial in range(1000):
        n = 64 if trial % 2 == 0 else 256
        f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)))
        lam = norm(f, 1) * float(10 ** rng.uniform(0.0, 2.0))
        checks = {c.name: c for c in verify_cz(cz_decompose(f, lam), f)}
        assert required <= set(checks)
        violations += sum(not c.passed for c in checks.values())
    assert violations == 0
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: 1000 decompositions, zero violations ({elapsed:.1f}s)")


def test_criterion_3_operator_algebra():
    n = 256
    x = np.arange(n) / n
    H = hilbert(n)
    got = apply(H, GridFunction(np.cos(2 * np.pi * x)))
    assert norm(got - GridFunction(np.sin(2 * np.pi * x)), np.inf) <= 1e-9
    rng = np.random.default_rng(10003)
    for _ in range(25):
        # the composition identity lives on top-mode-free probes, the grid
        # convention documented by the operators module
        f = nyquist_free(GridFunction(rng.standard_normal(n)))
        twice = apply(H, apply(H, f))
        want = GridFunction(-(f.values - f.values.mean()))
        assert norm(twice - want, np.inf) <= 1e-9
    for kind in KINDS:
        T = make_operator(kind, n, seed=7)
        Ts = adjoint(T)
        for _ in range(100):
            f = GridFunction(rng.standard_normal(n))
            g = GridFunction(rng.standard_normal(n))
            assert abs(inner(apply(T, f), g) - inner(f, apply(Ts, g))) <= 1e-10
    print("\nACCEPTANCE 3 PASS: multiplier identities and adjoint pairings")


def test_criterion_4_theorem1_exact_bounds_and_frozen_constant(theorem1_campaign, frozen):
    start = time.time()
    cfg, rows = theorem1_campaign
    bound_p = 1.0 + 2.0 ** ((cfg.p - 1.0) / cfg.p)
    worst_T = 0.0
    for label, kind, s, rep in rows:
        assert rep.ratio_p <= bound_p * (1 + 1e-9), (label, kind, s)
        assert rep.ratio_f <= 2.0 * (1 + 1e-9), (label, kind, s)
        assert np.isfinite(rep.ratio_T), (label, kind, s)
        worst_T = max(worst_T, rep.ratio_T)
    frozen("theorem1_max_ratio_T", worst_T)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 PASS: {len(rows)} runs, ratio_p <= {bound_p:.6f}, "
        f"ratio_f <= 2, max ratio_T {worst_T:.6f} frozen ({elapsed:.1f}s)"
    )


def test_criterion_5_level_identity(theorem1_campaign):
    cfg, rows = theorem1_campaign
    checked = 0
    for label, kind, s, rep in rows:
        if rep.a > DEGENERATE_TOL:
            lhs = rep.lam ** (cfg.p - 1.0) * rep.a
            rhs = rep.b**cfg.p
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-30), (label, kind, s)
            checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE 5 PASS: level identity on {checked} nondegenerate runs")


def test_criterion_6_theorem2_certified_and_oracle_checked(theorem2_campaign, frozen):
    start = time.time()
    cfg, results = theorem2_campaign
    worst_c = 0.0
    for label, kind, s, inst, res in results:
        assert res.status == "certified", (label, kind, s)
        assert certified(inst, res.c_star, res.v), (label, kind, s)
        # the certified bracket [c_lower, c*] is at most 2% wide
        assert 0.0 < res.c_lower <= res.c_star, (label, kind, s)
        assert res.c_star - res.c_lower <= 0.02 * res.c_star, (label, kind, s)
        worst_c = max(worst_c, res.c_star)
    # work-count guard: the stagnation rule alone needs 167,498 iterations here,
    # the weak-duality exits about 82,000, the extrapolated step about 7,200 and
    # the bisection that skips the midpoints below its bound about 1,800
    iterations = sum(res.iterations for *_, res in results)
    assert iterations <= 3_000, iterations
    frozen("theorem2_max_c_star", worst_c)

    # the worked instance: constant 2, radius 1
    inst = make_instance(GridFunction.constant(2.0, 64), hilbert(64), 1.0, 2)
    res = min_constant(inst, tol=1e-3)
    assert res.status == "certified"
    assert res.c_star <= 1.0

    # verdict agreement with the penalty-descent oracle at n = 8, p = 2
    rng = np.random.default_rng(10006)
    agreements = 0
    for i in range(100):
        kind = ("hilbert", "haar_transform")[i % 2]
        T = make_operator(kind, 8, seed=i)
        f = GridFunction(rng.standard_normal(8) * rng.lognormal(0, 0.7))
        f = f * (1.0 / norm(f, 1))
        inst = make_instance(f, T, float(rng.uniform(0.25, 0.7)) * norm(f, 2), 2)
        base = min_constant(inst, tol=1e-2)
        assert base.c_lower <= base.c_star, i
        c = base.c_star * (1.3 if i % 2 == 0 else 0.7)
        ours = feasible(inst, c).is_feasible
        oracle = penalty_feasible(inst, c)
        assert ours == oracle, (i, kind, c)
        agreements += 1
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 6 PASS: {len(results)} campaign instances certified, "
        f"worked instance c* = {res.c_star:.4f} <= 1, {agreements} oracle agreements ({elapsed:.1f}s)"
    )


def test_criterion_7_annihilation_identity():
    n = 256
    rng = np.random.default_rng(10007)
    for kind in KINDS:
        T = make_operator(kind, n, seed=3)
        for _ in range(100):
            g = GridFunction(rng.standard_normal(n))
            beta = GridFunction(rng.standard_normal(n))
            value = duality_pairing((g, apply(T, g)), annihilator_pair(beta, T))
            assert abs(value) <= 1e-9
    print("\nACCEPTANCE 7 PASS: 100 annihilation pairings per operator kind")


def test_criterion_8_support_mode():
    start = time.time()
    cfg = default_config(
        support="left-half",
        corpus_counts=(("spikes", 1), ("steps", 1), ("smooth", 1), ("mixture", 1)),
        dual_s_values=(0.75, 2.0),
    )
    E = GridSet.from_interval(DyadicInterval(1, 0), cfg.n)
    corpus = generate_corpus(cfg, support=E)
    assert corpus, "support corpus is empty"
    for label, f in corpus:
        assert np.all(f.values[~E.membership] == 0.0)
        for kind in cfg.dual_operators:
            T = make_operator(kind, cfg.n, cfg.seed)
            for s in cfg.dual_s_values:
                inst = make_instance(f, T, s, cfg.p, support=E)
                res = min_constant(inst, tol=cfg.dual_tol)
                assert res.status == "certified", (label, kind, s)
                assert certified(inst, res.c_star, res.v)
                assert np.all(res.v.values[~E.membership] == 0.0), (label, kind, s)
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 8 PASS: all witnesses vanish off E exactly ({elapsed:.1f}s)")


def test_criterion_9_graph_sequence_saturation_and_monotonicity(frozen):
    cfg = default_config()
    corpus = generate_corpus(cfg)
    worst_factor = 0.0
    for label, f in corpus:
        T = make_operator("hilbert", cfg.n, cfg.seed)
        s_top = norm(f, cfg.p)
        seq = graph_approx_sequence(f, T, [s_top, 2.0 * s_top], cfg.p)
        for fk in seq:
            assert fk == f
            assert norm(f - fk, 1) == 0.0
            assert norm(apply(T, f) - apply(T, fk), 1) == 0.0
        if not label.startswith(("spikes", "mixture")):
            continue
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
    frozen("graph_monotonicity_factor", worst_factor)
    print(
        f"\nACCEPTANCE 9 PASS: saturation exact, residual growth factor "
        f"{worst_factor:.6f} within frozen constant"
    )


def test_criterion_10_verify_all_determinism(tmp_path):
    start = time.time()
    outputs = []
    for run in (1, 2):
        path = tmp_path / f"verify{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "stablab", "verify", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0])
    assert summary["ok"]
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 10 PASS: verify exits 0 twice with byte-identical reports ({elapsed:.1f}s)")
