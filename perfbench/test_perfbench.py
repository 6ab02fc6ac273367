"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repository root."""

import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from stablab import dual_search, harness  # noqa: E402

TINY = dict(
    n=64,
    s_count=3,
    corpus_counts=(("spikes", 1), ("steps", 1), ("smooth", 1), ("mixture", 1)),
    dual_s_values=(0.75, 2.0),
    dual_operators=("hilbert",),
)


def tiny(dual: bool, seed: int = 7) -> workloads.Workload:
    return workloads.Workload("tiny", dual, lambda s: harness.default_config(seed=s, **TINY))


def drive(workload, seed=7, tracer=None) -> run.Loop:
    loop = run.Loop(workload.rows(seed))
    loop.run_pass(tracer)
    return loop


def test_row_driver_reproduces_theorem1():
    loop = drive(tiny(False))
    _, summary = harness.run_theorem1(harness.default_config(**TINY))
    assert loop.failed == 0
    assert len(loop.rows) == summary["rows"]
    assert max(loop.const.values()) == summary["max_ratio_T"]


def test_row_driver_reproduces_theorem2():
    loop = drive(tiny(True))
    _, summary = harness.run_theorem2(harness.default_config(**TINY))
    assert len(loop.rows) == summary["rows"]
    assert max(loop.const.values()) == summary["max_c_star"]
    assert loop.failed == summary["uncertified"] == 0


def test_dual_report_rows_are_the_default_campaign():
    rows = sorted(workloads.WORKLOADS["dual-report"].rows(3), key=lambda r: r.rid)
    cfg = harness.default_config()
    assert [(r.label, r.kind, r.s) for r in rows] == [
        (f"{name}:0", kind, s)
        for name in ("spikes", "steps", "smooth", "mixture")
        for kind in cfg.dual_operators
        for s in cfg.dual_s_values
    ]


def test_check_rejects_a_loosened_result():
    row = tiny(False).rows(7)[0]
    u, rep = workloads.call(row, None)
    assert workloads.check(row, None, (u, rep))[0]
    assert not workloads.check(row, None, (u * 3.0, rep))[0]

    row = next(r for r in tiny(True).rows(7) if r.label.endswith("spikes:0"))
    inst = workloads.prepare(row)
    res = workloads.call(row, inst)
    assert workloads.check(row, inst, res)[0]
    assert not workloads.check(row, inst, replace(res, c_star=res.c_star * 0.5))[0]


def _snapshot():
    snap = {(name, key): value for name, mod in tracing.MODULES.items() for key, value in vars(mod).items()}
    snap.update({("DualInstance", k): v for k, v in vars(dual_search.DualInstance).items()})
    return snap


def test_traced_run_restores_every_wrapped_function():
    before = _snapshot()
    with tracing.Tracer() as tracer:
        assert dual_search.feasible is not before[("dual_search", "feasible")]
        drive(tiny(True), tracer=tracer)
        drive(tiny(False), tracer=tracer)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert all(_snapshot()[k] is before[k] for k in before)


COUNTS = ("calls", "cubes", "iterations", "iterations_wasted", "inconclusive", "bisection_steps", "flagged")


def _counts(seed: int, dual: bool) -> dict:
    with tracing.Tracer() as tracer:
        drive(tiny(dual), seed, tracer)
    return {k: v for k, v in tracing.layer_metrics(tracer.spans).items() if k.endswith(COUNTS)}


@pytest.mark.parametrize("dual", [False, True])
def test_same_seed_repeats_counts(dual):
    first = _counts(7, dual)
    assert first == _counts(7, dual)
    assert any(first.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_orders_the_same_rows(name):
    a, b = (workloads.WORKLOADS[name].rows(seed) for seed in (1, 2))
    assert [r.rid for r in a] == [r.rid for r in workloads.WORKLOADS[name].rows(1)]
    assert [r.rid for r in a] != [r.rid for r in b]
    a, b = (sorted(rows, key=lambda r: r.rid) for rows in (a, b))
    assert [(r.label, r.kind, r.s) for r in a] == [(r.label, r.kind, r.s) for r in b]
    assert all((x.f.values == y.f.values).all() for x, y in zip(a, b))


def test_layer_metrics_self_time():
    spans = [
        tracing.Span("dual_search.min_constant", 0.0, 10.0, -1, 0, {"flagged": True, "status": "certified"}),
        tracing.Span("dual_search.feasible", 1.0, 5.0, 0, 0, {"iterations": 40, "status": "feasible", "n": 8}),
        tracing.Span("dual_search.graph_setup", 1.0, 2.0, 1, 0, None),
        tracing.Span("dual_search.feasible", 5.0, 9.0, 0, 0, {"iterations": 60, "status": "inconclusive", "n": 8}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["dual_search.min_constant.self_s"] == 2.0
    assert m["dual_search.feasible.self_s"] == 7.0
    assert m["dual_search.feasible.iterations_wasted"] == 60
    assert m["dual_search.feasible.useful_ratio"] == 0.4
    assert m["dual_search.feasible.s_per_iteration"] == 7.0 / 100
    assert m["dual_search.feasible.computed_mb_per_iteration"] == 3 * 8 * 64 / 1e6
    assert m["dual_search.min_constant.bisection_steps"] == 2
    assert m["dual_search.min_constant.flagged"] == 1


def test_speed_scale_uses_the_timings_around_a_sample():
    speed = run.Speed(workloads.descent_kernel, 1e-3)
    mark, cpu = speed.measure()
    speed.marks = [(0.0, {cpu: 2e-3}), (1.0, {cpu: 4e-3})]
    assert speed.scale(mark, cpu) == 1e-3 / 3e-3
    assert speed.scale(mark + 1, cpu) == 1e-3 / 4e-3
    os.sched_setaffinity(0, run.CPUS)


def test_tail_leaves_ten_values_beyond():
    for n in (11, 32, 720, 2160):
        q, value = run.tail([float(i) for i in range(n)])
        assert sum(v > value for v in range(n)) >= run.TAIL_BEYOND
        assert 0 < q < 100
        assert math.floor(100 * (1 - 10 / n)) == q
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_quantile_is_the_harrell_davis_estimate():
    from scipy.special import betainc

    values = [float(v) for v in np.random.default_rng(1).lognormal(size=32)]
    ordered = np.sort(values)
    for q in (0.5, 0.68):
        weights = np.diff(betainc(q * 33, (1 - q) * 33, np.arange(33) / 32))
        assert run.quantile(values, q) == pytest.approx(float(weights @ ordered), rel=1e-5)
    assert run.quantile([1.0, 5.0, 2.0, 4.0, 3.0], 0.5) == pytest.approx(3.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dual-report", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
