import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stablab import GridFunction, GridSet, cli, dist_linf_to_lp_ball, harness, make_instance, min_constant, norm
from stablab.cli import build_parser
from stablab.grid import DyadicInterval
from stablab.harness import (
    ConfigError,
    ExperimentConfig,
    default_config,
    generate_corpus,
    make_operator,
    run_theorem1,
    run_theorem2,
    verify_all,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def small_config(**overrides):
    base = dict(
        n=64,
        s_count=4,
        corpus_counts=(("spikes", 1), ("steps", 1), ("smooth", 1), ("mixture", 1)),
        dual_s_values=(0.75, 2.0),
        dual_operators=("hilbert",),
    )
    base.update(overrides)
    return default_config(**base)


def test_default_config_round_trip():
    cfg = default_config()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys():
    for text in (
        '{"sead": 3}',
        '{"s_sweep": {"min": 1.0, "mx": 4.0}}',
        '{"dual": {"tols": 0.1}}',
        '{"corpus": {"spike": 2}}',
    ):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_json(text)
    for text in ('[7]', '{"dual": 0.5}'):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_json(text)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        default_config(n=100)
    with pytest.raises(ConfigError):
        default_config(p=1.0)
    with pytest.raises(ConfigError):
        default_config(corpus_counts=(("nope", 1),))
    with pytest.raises(ConfigError):
        default_config(support="everything")


def test_corpus_empty_when_counts_zero():
    cfg = default_config(corpus_counts=(("spikes", 0),))
    assert generate_corpus(cfg) == []


def test_corpus_deterministic():
    cfg = default_config(n=64)
    first = generate_corpus(cfg)
    second = generate_corpus(cfg)
    assert [label for label, _ in first] == [label for label, _ in second]
    for (_, f), (_, g) in zip(first, second):
        assert f == g


def test_corpus_unit_l1_norm():
    for _, f in generate_corpus(default_config(n=128)):
        assert norm(f, 1) == pytest.approx(1.0, rel=1e-12)


def test_spike_family_is_sparse():
    cfg = default_config(n=8, corpus_counts=(("spikes", 10),))
    for _, f in generate_corpus(cfg):
        assert np.count_nonzero(f.values) <= 3


def test_corpus_on_the_two_cell_grid():
    # a spike draws up to three distinct cells, and n = 2 has two
    corpus = generate_corpus(default_config(n=2))
    assert len(corpus) == 12
    for _, f in corpus:
        assert f.n == 2 and np.all(np.isfinite(f.values))
        assert norm(f, 1) == pytest.approx(1.0, rel=1e-12)


def test_corpus_respects_support():
    E = GridSet.from_interval(DyadicInterval(1, 0), 64)
    cfg = default_config(n=64)
    for _, f in generate_corpus(cfg, support=E):
        assert np.all(f.values[~E.membership] == 0.0)
        assert norm(f, 1) == pytest.approx(1.0, rel=1e-12)


def test_make_operator_deterministic_signs():
    a = make_operator("haar_transform", 64, seed=9)
    b = make_operator("haar_transform", 64, seed=9)
    assert a.signs == b.signs
    c = make_operator("haar_transform", 64, seed=10)
    assert a.signs != c.signs


def test_theorem1_rows_cover_every_instance():
    cfg = small_config()
    csv_text, summary = run_theorem1(cfg)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("# stablab-csv-v2 theorem1")
    rows = lines[2:]
    want = 4 * len(cfg.operators) * cfg.s_count  # corpus size 4
    assert len(rows) == want == summary["rows"]


def test_theorem1_deterministic_bytes():
    cfg = small_config()
    a, _ = run_theorem1(cfg)
    b, _ = run_theorem1(cfg)
    assert a == b


def test_theorem1_ratios_finite_and_bounded():
    cfg = small_config()
    csv_text, summary = run_theorem1(cfg)
    bound = 1.0 + 2.0 ** ((cfg.p - 1.0) / cfg.p)
    assert summary["max_ratio_p"] <= bound * (1 + 1e-9)
    assert summary["max_ratio_f"] <= 2.0 * (1 + 1e-9)
    assert np.isfinite(summary["max_ratio_T"])


def test_theorem2_rows_and_certification():
    cfg = small_config()
    csv_text, summary = run_theorem2(cfg)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("# stablab-csv-v4 theorem2")
    assert summary["rows"] == 4 * 1 * 2  # corpus x dual_operators x dual_s_values
    assert summary["uncertified"] == 0
    header = lines[1].split(",")
    assert header[header.index("c_star") + 1 : header.index("c_star") + 3] == ["c_lower", "gap"]
    gaps = []
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        c_star, c_lower = float(row["c_star"]), float(row["c_lower"])
        assert 0.0 <= c_lower <= c_star
        gaps.append(float(row["gap"]))
        assert gaps[-1] == (c_star - c_lower) / c_star
    assert summary["max_gap"] == max(gaps)


def test_empty_corpus_gives_header_only():
    cfg = small_config(corpus_counts=(("spikes", 0),), dual_s_values=(1.0,))
    for runner in (run_theorem1, run_theorem2):
        csv_text, summary = runner(cfg)
        assert summary["rows"] == 0
        assert len(csv_text.strip().splitlines()) == 2


def test_golden_csv_smoke_regression():
    # the frozen campaign output for a fixed tiny config; a missing file
    # fails, so regenerating it is a deliberate write of this csv_text
    cfg = small_config()
    csv_text, _ = run_theorem1(cfg)
    path = os.path.join(GOLDEN, "theorem1_smoke.csv")
    assert os.path.exists(path), f"golden {path} is missing; regenerate it on purpose"
    with open(path) as fh:
        assert fh.read() == csv_text


def test_default_campaign_at_n4096_bytes_are_frozen():
    # the 720 rows of the benchmark's explicit-sweep workload: any change to the
    # construction's output bits moves this hash, and re-freezing it is a deliberate write
    csv_text, _ = run_theorem1(default_config(n=4096))
    with open(os.path.join(GOLDEN, "theorem1_n4096_csv_sha256.json")) as fh:
        frozen = json.load(fh)["value"]
    assert hashlib.sha256(csv_text.encode()).hexdigest() == frozen


def test_frozen_compares_and_never_writes(frozen):
    name = "theorem2_max_c_star"
    path = os.path.join(GOLDEN, f"{name}.json")
    with open(path, "rb") as fh:
        before = fh.read()
    value = json.loads(before)["value"]
    # at or below the frozen value, and within the slack above it
    assert frozen(name, value) == value
    assert frozen(name, 0.5 * value) == value
    assert frozen(name, value * (1 + 5e-10)) == value
    with pytest.raises(pytest.fail.Exception, match="regressed") as regressed:
        frozen(name, value * (1 + 1e-8))
    assert json.dumps({"name": name, "value": value * (1 + 1e-8)}, sort_keys=True) in str(regressed.value)
    with pytest.raises(pytest.fail.Exception, match="missing"):
        frozen("no_such_constant", 1.0)
    assert not os.path.exists(os.path.join(GOLDEN, "no_such_constant.json"))
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_verify_all_counts_every_check():
    # one (name, failed) pair per check: a dropped or doubled yield moves a count
    suites = verify_all(default_config())["suites"]
    counts = {name: suite["checks"] for name, suite in suites.items()}
    assert counts == {"grid": 16737, "distance": 300, "cz": 2600, "operators": 604, "stability": 120, "dual": 42}


def test_verify_all_green_and_fault_injection(monkeypatch):
    cfg = small_config()
    summary = verify_all(cfg)
    assert summary["ok"]
    # T* = T breaks the pairing of the skew-adjoint Hilbert transform
    monkeypatch.setattr(harness, "adjoint", lambda T: T)
    broken = verify_all(cfg)
    assert not broken["ok"]
    assert broken["suites"]["operators"]["failures"] > 0


def test_verify_nesting_law_can_fail(monkeypatch):
    # with containment broken, distinct overlapping intervals are neither nested nor disjoint
    monkeypatch.setattr(DyadicInterval, "contains", lambda self, other: False)
    broken = verify_all(small_config())
    assert not broken["ok"]
    assert broken["suites"]["grid"]["failures"] > 0
    assert broken["suites"]["grid"]["failed"][0].startswith("nesting:")


def test_verify_dilation_bound_can_fail(monkeypatch):
    # one more cell on each side of every dilation passes the measure bound of the small cubes
    real = harness.dilated_cells

    def wider(*args):
        cells = real(*args)
        return None if cells is None else (cells[0] - 1, cells[1] + 2)

    monkeypatch.setattr(harness, "dilated_cells", wider)
    broken = verify_all(small_config())
    assert not broken["ok"]
    assert broken["suites"]["grid"]["failures"] > 0
    assert all(name.startswith("dilate:") for name in broken["suites"]["grid"]["failed"])


def test_library_runs_without_scipy():
    # the library needs numpy alone; scipy is test equipment (tests/oracles.py)
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import stablab
cfg = stablab.default_config(
    n=16, s_count=2, corpus_counts=(("spikes", 1), ("smooth", 1)), dual_s_values=(1.0,),
    dual_operators=("hilbert",),
)
_, one = stablab.run_theorem1(cfg)
_, two = stablab.run_theorem2(cfg)
assert stablab.verify_all(cfg)["ok"]
print(one["rows"], two["rows"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["12", "2"]


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "stablab", *args], capture_output=True, text=True, timeout=timeout)


def test_cli_distance_json():
    out = run_cli("distance", "--n", "8", "--s", "1", "--p", "2")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert set(payload) == {"value", "threshold", "s", "p", "ambient"}


def test_cli_dual_on_the_two_cell_grid():
    out = run_cli("dual", "--n", "2")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["status"] == "certified"


def test_cli_dual_with_a_tol_below_the_spacing_of_the_doubles():
    # the bracket closes down to adjacent doubles, and the search still ends
    out = run_cli("dual", "--tol", "1e-300", timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["status"] == "certified"


def test_cli_reads_function_from_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps([2.0, 0.0]))
    out = run_cli("distance", "--input", str(path), "--s", "1", "--p", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == pytest.approx((2 - 2**0.5) / 2, abs=1e-10)


def test_cli_verify_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(small_config().to_json())
    ok = run_cli("verify", "--config", str(cfg))
    assert ok.returncode == 0
    # the same fault as test_verify_all_green_and_fault_injection, behind the CLI
    code = (
        "import sys; from stablab import cli, harness; harness.adjoint = lambda T: T; "
        f"sys.exit(cli.main(['verify', '--config', {str(cfg)!r}]))"
    )
    bad = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert bad.returncode == 1, bad.stderr
    assert not json.loads(bad.stdout)["ok"]


def test_cli_report_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        small_config(dual_s_values=(2.0,), dual_operators=("hilbert",)).to_json()
    )
    first = run_cli("report", "--config", str(cfg), "--outdir", str(tmp_path / "r1"))
    assert first.returncode == 0, first.stderr
    second = run_cli("report", "--config", str(cfg), "--outdir", str(tmp_path / "r2"))
    assert second.returncode == 0, second.stderr
    assert set(json.loads(first.stdout)) == {"theorem1", "theorem2"}
    for name in ("theorem1.csv", "theorem2.csv", "summary.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_cli_dual_support_mode(tmp_path):
    out = run_cli(
        "dual", "--n", "32", "--s", "1.0", "--operator", "hilbert",
        "--support", "left-half", "--tol", "0.02",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["status"] == "certified"
    # the same set given as a mask file
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps([1] * 16 + [0] * 16))
    from_mask = run_cli(
        "dual", "--n", "32", "--s", "1.0", "--operator", "hilbert",
        "--support", str(mask), "--tol", "0.02",
    )
    assert from_mask.returncode == 0, from_mask.stderr
    assert from_mask.stdout == out.stdout


@pytest.mark.parametrize(
    "argv, text, message",
    [
        ("verify --config {path}", '{"sead": 3}', "unknown key(s) in config: sead"),
        # settings the config once had: verify's trial counts, the cz dilation, linear radii
        ("verify --config {path}", '{"cz_trials": 5}', "unknown key(s) in config: cz_trials"),
        ("verify --config {path}", '{"probe_trials": 5}', "unknown key(s) in config: probe_trials"),
        ("verify --config {path}", '{"dilation_factor": 4.0}', "unknown key(s) in config: dilation_factor"),
        ("report --config {path} --outdir {path}.d", '{"s_sweep": {"log": false}}', "unknown key(s) in s_sweep: log"),
        ("distance --input {path}", "[1.0, 2.0, 3.0]", "power of two"),
        ("distance --input {path}", "[1.0, NaN]", "finite"),
        ("distance --input {path}", None, "No such file"),
        ("distance --s -1", None, "ball radius must be nonnegative and finite, got -1.0"),
        ("dual --tol 0", None, "dual.tol must be positive and finite, got 0.0"),
        ("cz --level 0", None, "decomposition level must be positive and finite, got 0.0"),
        ("construct --s nan", None, "ball radius must be positive and finite, got nan"),
        # a mask is a dual-only support: the report campaign takes the named choice alone
        ("report --support {path} --outdir {path}.d", "[1, 0]", "unsupported support choice"),
        # inputs on the wrong grid, and a JSON object where an array belongs
        ("redecompose --input {path} --n 16", "[1, 2, 3, 4, 5, 6, 7, 8]", "operator on n=16 applied to f with n=8"),
        ("dual --support {path}", "[1, 0, 1, 0]", "support mask has 4 cells, the grid has n=256"),
        ("distance --input {path}", "{}", "grid values must be a JSON array of numbers"),
        # a function holds JSON numbers only, each within the doubles
        ("distance --input {path}", '["1", "2", true, false]', "grid values must be a JSON array of numbers"),
        ("distance --input {path}", "[" + "9" * 400 + ", 0, 1, 1]", "grid values must be finite"),
        ("dual --s inf", None, "ball radius must be positive and finite, got inf"),
        # non-finite numbers would print as Infinity, which is not JSON, or skip the bisection
        ("distance --s inf", None, "ball radius must be nonnegative and finite, got inf"),
        ("construct --s inf", None, "ball radius must be positive and finite, got inf"),
        ("cz --level inf", None, "decomposition level must be positive and finite, got inf"),
        ("dual --tol inf", None, "dual.tol must be positive and finite, got inf"),
        # a set holds only 0 and 1 (or false and true)
        ("dual --n 8 --support {path}", "[0.5, 2, 0, 1, 0, 0, 0, 0]", "a set must be a JSON array of 0/1 values"),
        ("dual --n 8 --support {path}", '["x", "", "y", "", 0, 0, 0, 0]', "a set must be a JSON array of 0/1 values"),
        ("dual --n 8 --support {path}", "[-1, 0, 0, 0, 0, 0, 0, 0]", "a set must be a JSON array of 0/1 values"),
        # config values are checked for type and domain when the config loads
        ("verify --config {path}", '{"s_sweep": {"min": 0}}', "s_sweep.min must be positive and finite, got 0"),
        ("verify --config {path}", '{"s_sweep": {"min": 4.0, "max": 2.0}}', "s_sweep.max must be finite and >= s_sweep.min, got 2.0"),
        ("verify --config {path}", '{"s_sweep": {"count": 0}}', "s_sweep.count must be a positive integer, got 0"),
        ("verify --config {path}", '{"dual": {"tol": 0}}', "dual.tol must be positive and finite, got 0"),
        ("verify --config {path}", '{"dual": {"s_values": [-1]}}', "every dual.s_values entry must be positive and finite, got -1"),
        ("verify --config {path}", '{"dual": {"per_family": -1}}', "dual.per_family must be a nonnegative integer, got -1"),
        ("verify --config {path}", '{"seed": -1}', "seed must be a nonnegative integer, got -1"),
        ("verify --config {path}", '{"seed": "x"}', "seed must be a nonnegative integer, got 'x'"),
        ("verify --config {path}", '{"corpus": {"spikes": 1.5}}', "corpus.spikes must be a nonnegative integer, got 1.5"),
        ("verify --config {path}", '{"operators": "hilbert"}', "operators must be a non-empty list, got 'hilbert'"),
        ("verify --config {path}", '{"n": 8.0}', "n must be a power of two >= 2, got 8.0"),
        # a JSON integer beyond the doubles has no double to hold
        ("verify --config {path}", '{"p": ' + "9" * 401 + "}", "p must be finite and > 1, got " + "9" * 401),
        ("dual --config {path}", '{"dual": {"tol": ' + "9" * 401 + "}}", "dual.tol must be positive and finite, got 9"),
        ("report --config {path} --outdir {path}.d", '{"s_sweep": {"max": ' + "9" * 401 + "}}",
         "s_sweep.max must be finite and >= s_sweep.min, got 9"),
        ("report --config {path} --outdir {path}.d", '{"dual": {"operators": []}}', "dual.operators must be a non-empty list, got ()"),
        # outputs that cannot be written: a missing directory, and a file where a directory belongs
        ("distance --out {path}.d/x.json", None, "No such file or directory"),
        ("report --outdir {path}", "[]", "File exists"),
        # a constant beyond the doubles: the search's start norm(f, p) / s overflows
        ("dual --n 8 --input {path} --s 1e-10", "[1e300, 0, 2e299, 0, 0, 5e299, 0, 1e299]", "norm(f, p) / s overflows"),
        # an empty corpus has no function to take by default
        *((f"{command} --config {{path}}", '{"n": 8, "corpus": {"spikes": 0, "steps": 0, "smooth": 0, "mixture": 0}}',
           "corpus is empty: give the function with --input") for command in ("distance", "cz", "construct", "redecompose", "dual")),
    ],
    ids=[
        "unknown-config-key", "cz-trials-key", "probe-trials-key", "dilation-key", "s-log-key", "three-values", "nan", "missing-file",
        "negative-radius", "zero-tol", "zero-level", "nan-radius",
        "report-mask", "redecompose-grid", "dual-mask-grid", "json-object", "input-strings-and-bools",
        "input-integer-overflow", "infinite-radius",
        "distance-infinite-radius", "construct-infinite-radius", "infinite-level", "infinite-tol",
        "mask-fraction-and-two", "mask-strings", "mask-negative",
        "zero-s-min", "s-max-below-min", "zero-s-count", "zero-dual-tol", "negative-dual-s", "negative-per-family",
        "negative-seed", "string-seed", "fractional-count", "operators-string", "float-n",
        "p-beyond-the-doubles", "dual-tol-beyond-the-doubles", "s-max-beyond-the-doubles", "no-dual-operators",
        "out-missing-dir", "outdir-is-a-file", "dual-constant-overflow", "empty-corpus-distance", "empty-corpus-cz",
        "empty-corpus-construct", "empty-corpus-redecompose", "empty-corpus-dual",
    ],
)
def test_cli_bad_input_is_a_one_line_error(tmp_path, argv, text, message):
    path = tmp_path / "given.json"
    if text is not None:
        path.write_text(text)
    out = run_cli(*(arg.format(path=path) for arg in argv.split()))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("stablab: error: ") and out.stderr.count("\n") == 1
    assert message in out.stderr


@pytest.mark.parametrize(
    "argv, flag",
    # --outdir keeps what a report that ignored --out would write inside tmp_path
    # cz dilates by the fixed theorem-1 factor, cz.DILATION; no verify suite reads a support set
    [
        ("report --out {tmp} --outdir {tmp}", "--out"), ("verify --s 1", "--s"), ("cz --s 2", "--s"),
        ("cz --dilation 4", "--dilation"), ("verify --support left-half", "--support"),
    ],
)
def test_cli_rejects_a_flag_the_subcommand_does_not_read(tmp_path, argv, flag):
    out = run_cli(*argv.format(tmp=tmp_path).split())
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"unrecognized arguments: {flag} " in out.stderr


def test_knob_counts_are_pinned():
    # every settable flag of every subcommand, and every config field: a new knob
    # fails here until the pin is moved on purpose
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a for sub in subs.choices.values() for a in sub._actions if a.option_strings and a.dest != "help"]
    assert len(flags) == 51
    assert len(dataclasses.fields(ExperimentConfig)) == 13


def test_cli_redecompose_zero_radius_is_degenerate():
    out = run_cli("redecompose", "--s", "0")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["degenerate"] is True
    assert payload["b"] == 0.0 and payload["lam"] == 0.0 and payload["a"] > 0.0


def test_cli_redecompose_bytes():
    # the default config's output; "b" reads 1.0 since the clip level is solved exactly,
    # and lam = 0.443 lies below mean |u0|, so the root cube is selected and the split is degenerate
    out = run_cli("redecompose")
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        '{"a": 2.2563096986333244, "b": 1.0, "c": 2.2563096986333244, '
        '"degenerate": true, "holder_lhs": 2.760704111501633, "holder_rhs": 4.255006766483898, '
        '"lam": 0.44320156962748186, "ratio_Th": 0.6117741977472833, "ratio_Tw_p": 0.9986970678505735, '
        '"ratio_h": 0.6678890965528577, "ratio_w_p": 1.1982104390802135}\n'
    )


# the steps:1 draw of the default corpus at n = 8
STEPS_1_N8 = [-1.3159245957027639] * 4 + [0.6840754042972362] * 4


@pytest.mark.parametrize("command", ["construct", "redecompose"])
@pytest.mark.parametrize(
    "flags, values, level_in_range",
    # b^p underflows at p = 40, s = 1e-12, and overflows at p = 80, s = 1e5 on the spike pair, with lam a double;
    # lam itself overflows at p = 1.01, s = 1 on steps:1 and underflows to 0 at p = 1.5, s = 1e-200
    [
        ("--p 40 --s 1e-12", None, True),
        ("--p 80 --s 1e5", [1e10, 0, 0, 0, 0, 0, 0, 3e9], True),
        ("--p 1.01 --s 1", STEPS_1_N8, False),
        ("--p 1.5 --s 1e-200", None, False),
    ],
    ids=["b-to-the-p-underflows", "b-to-the-p-overflows", "lam-overflows", "lam-underflows"],
)
def test_cli_split_level_where_b_to_the_p_is_out_of_range(tmp_path, command, flags, values, level_in_range):
    argv = [command, "--n", "8", *flags.split()]
    if values is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(values))
        argv += ["--input", str(path)]
    out = run_cli(*argv)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    if level_in_range:
        assert 0.0 < payload["lam"] < float("inf")
    else:
        assert payload["lam"] == 0.0  # no level: the overflow selects no cube, the underflow the root
    assert payload["degenerate"] is True  # no level, or a split that selects the root cube


def test_cli_verify_where_the_split_level_overflows():
    # at p = 1.01 some rows' lam = b (b / a)^100 lies beyond the doubles; they split at no level
    out = run_cli("verify", "--n", "2", "--p", "1.01")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True


def test_integer_and_float_spellings_of_a_config_write_the_same_report(tmp_path):
    # equal configs must write equal bytes: every real setting is held as a double
    spellings = {
        "int": '{"p": 2, "n": 64, "dual": {"s_values": [1]}, "s_sweep": {"min": 1, "max": 2, "count": 2}}',
        "float": '{"p": 2.0, "n": 64, "dual": {"s_values": [1.0]}, "s_sweep": {"min": 1.0, "max": 2.0, "count": 2}}',
    }
    configs = [ExperimentConfig.from_json(text) for text in spellings.values()]
    assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])
    assert configs[0].to_json() == configs[1].to_json()
    for name, text in spellings.items():
        (tmp_path / f"{name}.json").write_text(text)
        out = run_cli("report", "--config", str(tmp_path / f"{name}.json"), "--outdir", str(tmp_path / name))
        assert out.returncode == 0, out.stderr
        (tmp_path / name / "stdout").write_text(out.stdout)
    for name in ("theorem1.csv", "theorem2.csv", "summary.json", "stdout"):
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes(), name


def test_cli_takes_the_first_draw_without_the_rest_of_the_corpus(monkeypatch, capsys):
    # the default dual row is the search on the corpus's first function; spikes comes first,
    # so no smooth draw (nor the mixture's, which makes one) is made
    cfg = default_config()
    T = make_operator(cfg.dual_operators[0], cfg.n, cfg.seed)
    want = min_constant(make_instance(generate_corpus(cfg)[0][1], T, 1.0, cfg.p), tol=cfg.dual_tol).to_json()

    def no_smooth(rng, n):
        raise AssertionError("a smooth draw was made")

    monkeypatch.setattr(harness, "_smooth", no_smooth)
    monkeypatch.setitem(harness._MAKERS, "smooth", no_smooth)
    assert cli.main(["dual"]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_cli_reads_the_first_family_with_draws(tmp_path, capsys):
    # an empty family is skipped: the function is the first draw of the next one, as in the corpus
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 8, "corpus": {"spikes": 0, "steps": 2}}')
    assert cli.main(["distance", "--config", str(path), "--ambient", "inf"]) == 0
    f = generate_corpus(ExperimentConfig.from_json(path.read_text()))[0][1]
    assert capsys.readouterr().out == dist_linf_to_lp_ball(f, 1.0, 2.0).to_json() + "\n"


def test_cli_dual_reads_the_config_tol_and_the_flag_overrides_it(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dual": {"tol": 0.2}}')
    argv = ("dual", "--n", "16", "--s", "1.5")
    default = run_cli(*argv)
    from_config = run_cli(*argv, "--config", str(cfg))
    from_flag = run_cli(*argv, "--tol", "0.2")
    overridden = run_cli(*argv, "--config", str(cfg), "--tol", "0.01")
    for out in (default, from_config, from_flag, overridden):
        assert out.returncode == 0, out.stderr
    assert from_config.stdout == from_flag.stdout != default.stdout
    assert overridden.stdout == default.stdout
