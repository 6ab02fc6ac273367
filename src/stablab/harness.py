"""Experiment orchestration: corpora, campaigns, CSV reports, verification.

Everything here is deterministic: corpora are drawn from seeded generators,
campaigns iterate in a fixed order, and floats are serialized with repr, so
identical configs produce byte-identical reports.
"""

from __future__ import annotations

import functools
import io
import json
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import cz as cz_mod
from . import distance as distance_mod
from .dual_search import annihilator_pair, duality_pairing, make_instance, min_constant
from .grid import DyadicInterval, GridFunction, GridSet, dilate_interval, inner, norm
from .operators import KINDS, LinearOperatorSpec, adjoint, apply, nyquist_free
from .stability import DEGENERATE_TOL, bourgain_construct

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "default_config",
    "generate_corpus",
    "make_operator",
    "run_theorem1",
    "run_theorem2",
    "verify_all",
]

# schema line of each CSV, bumped when its columns change
CSV_SCHEMAS = {"theorem1": "stablab-csv-v2", "theorem2": "stablab-csv-v3"}
FAMILIES = ("spikes", "steps", "smooth", "mixture")
SUPPORT_LEFT_HALF = "left-half"
# trials of verify's cz suite and of its operator probes per kind
CZ_TRIALS = 200
PROBE_TRIALS = 100
# The JSON layout of ExperimentConfig: section -> {JSON key: field}, with the
# top level under None.  "corpus", {family: count} for corpus_counts, is the
# one section outside the table.
_LAYOUT = {
    None: {key: key for key in ("seed", "n", "p", "operators", "support")},
    "s_sweep": {"min": "s_min", "max": "s_max", "count": "s_count"},
    "dual": {
        "s_values": "dual_s_values", "operators": "dual_operators", "per_family": "dual_corpus_per_family",
        "tol": "dual_tol",
    },
}
_TOP_KEYS = (*_LAYOUT[None], "s_sweep", "dual", "corpus")


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def _reject_unknown(obj, known: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _check(ok: bool, where: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{where} must be {rule}, got {value!r}")


def _is(value, kind=numbers.Real) -> bool:  # JSON's true and false are not numbers here
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    n: int = 256
    p: float = 2.0
    operators: tuple[str, ...] = ("hilbert", "haar_transform", "identity_minus_mean")
    s_min: float = 1.0
    s_max: float = 32.0
    s_count: int = 20
    corpus_counts: tuple[tuple[str, int], ...] = (
        ("spikes", 3),
        ("steps", 3),
        ("smooth", 3),
        ("mixture", 3),
    )
    dual_s_values: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    dual_operators: tuple[str, ...] = ("hilbert", "haar_transform")
    dual_corpus_per_family: int = 1
    dual_tol: float = 1e-2
    support: str | None = None  # None or "left-half"

    def __post_init__(self):
        integer = numbers.Integral
        _check(_is(self.seed, integer) and self.seed >= 0, "seed", "a nonnegative integer", self.seed)
        _check(_is(self.n, integer) and self.n >= 2 and self.n & (self.n - 1) == 0, "n", "a power of two >= 2", self.n)
        _check(_is(self.p) and 1.0 < self.p < math.inf, "p", "finite and > 1", self.p)
        _check(_is(self.s_min) and 0.0 < self.s_min < math.inf, "s_sweep.min", "positive and finite", self.s_min)
        _check(_is(self.s_max) and self.s_min <= self.s_max < math.inf, "s_sweep.max", "finite and >= s_sweep.min", self.s_max)
        _check(_is(self.s_count, integer) and self.s_count >= 1, "s_sweep.count", "a positive integer", self.s_count)
        for name, count in self.corpus_counts:
            if name not in FAMILIES:
                raise ConfigError(f"unknown corpus family {name!r}")
            _check(_is(count, integer) and count >= 0, f"corpus.{name}", "a nonnegative integer", count)
        _check(isinstance(self.dual_s_values, tuple), "dual.s_values", "a list", self.dual_s_values)
        for s in self.dual_s_values:
            _check(_is(s) and 0.0 < s < math.inf, "every dual.s_values entry", "positive and finite", s)
        per_family = self.dual_corpus_per_family
        _check(_is(per_family, integer) and per_family >= 0, "dual.per_family", "a nonnegative integer", per_family)
        _check(_is(self.dual_tol) and 0.0 < self.dual_tol < math.inf, "dual.tol", "positive and finite", self.dual_tol)
        for where, kinds in (("operators", self.operators), ("dual.operators", self.dual_operators)):
            _check(isinstance(kinds, tuple) and len(kinds) > 0, where, "a non-empty list", kinds)
            for kind in kinds:
                if kind not in KINDS:
                    raise ConfigError(f"unknown operator kind {kind!r}")
        if self.support not in (None, SUPPORT_LEFT_HALF):
            raise ConfigError(f"unsupported support choice {self.support!r}")

    def s_values(self) -> list[float]:
        """s_count radii from s_min to s_max, evenly spaced in log s."""
        if self.s_count == 1:
            return [float(self.s_min)]
        lo, hi = math.log(self.s_min), math.log(self.s_max)
        return [math.exp(lo + (hi - lo) * i / (self.s_count - 1)) for i in range(self.s_count)]

    def to_json(self) -> str:
        obj = {"corpus": dict(self.corpus_counts)}
        for section, fields in _LAYOUT.items():
            part = obj if section is None else obj.setdefault(section, {})
            part.update((key, getattr(self, name)) for key, name in fields.items())
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        kwargs = {}
        for section, fields in _LAYOUT.items():  # the top level first
            part = obj if section is None else obj.get(section, {})
            _reject_unknown(part, _TOP_KEYS if section is None else tuple(fields), section or "config")
            for key, name in fields.items():
                if key in part:  # JSON arrays are held as tuples; the config checks which fields take them
                    kwargs[name] = tuple(part[key]) if isinstance(part[key], list) else part[key]
        if "corpus" in obj:
            _reject_unknown(obj["corpus"], FAMILIES, "corpus")
            # family order is canonical so configs hash and compare stably
            kwargs["corpus_counts"] = tuple((name, obj["corpus"][name]) for name in FAMILIES if name in obj["corpus"])
        return cls(**kwargs)


def default_config(**overrides) -> ExperimentConfig:
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _spike(rng: np.random.Generator, n: int) -> np.ndarray:
    count = int(rng.integers(1, min(3, n) + 1))
    cells = rng.choice(n, size=count, replace=False)
    out = np.zeros(n)
    out[cells] = rng.choice([-1.0, 1.0], size=count) * rng.lognormal(0.0, 0.5, size=count)
    return out

def _step(rng: np.random.Generator, n: int) -> np.ndarray:
    level = int(rng.integers(1, min(5, n.bit_length() - 1) + 1))
    blocks = rng.standard_normal(1 << level)
    return np.repeat(blocks, n >> level)

def _smooth(rng: np.random.Generator, n: int) -> np.ndarray:
    top = max(2, n // 16)
    x = np.arange(n) / n
    out = np.zeros(n)
    for j in range(1, top + 1):
        amp = 1.0 / (1.0 + j) ** 1.5
        out += amp * rng.standard_normal() * np.cos(2 * np.pi * j * x)
        out += amp * rng.standard_normal() * np.sin(2 * np.pi * j * x)
    return out

def _mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    a, b = _smooth(rng, n), _spike(rng, n)
    a /= max(np.abs(a).mean(), 1e-12)
    b /= max(np.abs(b).mean(), 1e-12)
    return 0.5 * a + 0.5 * b

_MAKERS = {"spikes": _spike, "steps": _step, "smooth": _smooth, "mixture": _mixture}


def generate_corpus(cfg: ExperimentConfig, support: GridSet | None = None) -> list[tuple[str, GridFunction]]:
    """Deterministic corpus of unit-L^1 functions, labeled family:index.

    With a support set the draws are masked first and renormalized, so every
    member vanishes off the set exactly.
    """
    out: list[tuple[str, GridFunction]] = []
    for name, count in cfg.corpus_counts:
        maker = _MAKERS[name]
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, FAMILIES.index(name), i]))
            values = maker(rng, cfg.n)
            if support is not None:
                values = np.where(support.membership, values, 0.0)
            total = np.abs(values).mean()
            if total <= 1e-12:
                values = np.zeros(cfg.n)
                values[0 if support is None else int(np.argmax(support.membership))] = float(cfg.n)
                total = 1.0
            out.append((f"{name}:{i}", GridFunction(values / total)))
    return out


@functools.lru_cache(maxsize=None)
def make_operator(kind: str, n: int, seed: int = 0) -> LinearOperatorSpec:
    """Operator factory; haar_transform gets seeded +-1 signs per scale/position.

    Specs are immutable, so equal calls share one (a Haar spec is 64 KB at n = 4096)."""
    signs = None
    if kind == "haar_transform":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1713]))
        signs = tuple(rng.choice([-1, 1], size=n - 1).tolist())
    return LinearOperatorSpec(kind, n, signs)


def left_half(n: int) -> GridSet:
    """The support set named "left-half": the cells of [0, 1/2)."""
    return GridSet.from_interval(DyadicInterval(1, 0), n)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(name: str, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMAS[name]} {name}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


THEOREM1_HEADER = [
    "instance", "operator", "n", "p", "s",
    "a", "b", "c", "lam", "cube_count", "omega_measure",
    "ratio_p", "ratio_f", "ratio_T", "resid_l1", "resid_T", "degenerate",
]

THEOREM2_HEADER = [
    "instance", "operator", "n", "p", "s", "r", "t",
    "c_star", "c_lower", "res_p", "res_inf", "res_Tinf", "iterations", "status", "flagged", "support",
]


def run_theorem1(cfg: ExperimentConfig) -> tuple[str, dict]:
    """Sweep corpus x radii x operators through the explicit construction.

    Returns the CSV text and a summary with the corpus maxima of the three
    ratios (the measured stand-ins for the inequality constants).
    """
    corpus = generate_corpus(cfg)
    rows = []
    max_ratios = {"ratio_p": 0.0, "ratio_f": 0.0, "ratio_T": 0.0}
    for label, f in corpus:
        for kind in cfg.operators:
            T = make_operator(kind, cfg.n, cfg.seed)
            for s in cfg.s_values():
                _, rep = bourgain_construct(f, T, s, cfg.p)
                rows.append([label, kind, cfg.n, cfg.p, s, *(getattr(rep, key) for key in THEOREM1_HEADER[5:])])
                for key in max_ratios:
                    max_ratios[key] = max(max_ratios[key], getattr(rep, key))
    csv_text = _write_csv("theorem1", THEOREM1_HEADER, rows)
    summary = {"rows": len(rows), **{f"max_{k}": v for k, v in max_ratios.items()}}
    return csv_text, summary


def run_theorem2(cfg: ExperimentConfig) -> tuple[str, dict]:
    """Sweep a (smaller) corpus through the dual feasibility search."""
    support = None if cfg.support is None else left_half(cfg.n)
    per_family = tuple((name, min(count, cfg.dual_corpus_per_family)) for name, count in cfg.corpus_counts)
    corpus = generate_corpus(replace(cfg, corpus_counts=per_family), support)
    rows = []
    c_max = 0.0
    uncertified = 0
    for label, f in corpus:
        for kind in cfg.dual_operators:
            T = make_operator(kind, cfg.n, cfg.seed)
            for s in cfg.dual_s_values:
                inst = make_instance(f, T, s, cfg.p, support)
                result = min_constant(inst, tol=cfg.dual_tol)
                rows.append([
                    label, kind, cfg.n, cfg.p, s, inst.r, inst.t,
                    result.c_star, result.c_lower, result.res_p, result.res_inf, result.res_Tinf,
                    result.iterations, result.status, result.flagged,
                    cfg.support or "none",
                ])
                c_max = max(c_max, result.c_star)
                uncertified += int(result.status != "certified")
    csv_text = _write_csv("theorem2", THEOREM2_HEADER, rows)
    summary = {"rows": len(rows), "max_c_star": c_max, "uncertified": uncertified}
    return csv_text, summary


# ---------------------------------------------------------------------------
# verify_all: every module's invariant suite, machine-readable summary
# ---------------------------------------------------------------------------


def _suite_grid(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    # nesting law, exhaustive through level 6, with each interval's name formatted once
    intervals = [(q, str(q)) for q in (DyadicInterval(l, i) for l in range(7) for i in range(1 << l))]
    for a, name_a in intervals:
        for b, name_b in intervals:
            yield f"nesting:{name_a}|{name_b}", not a.nested_or_disjoint(b)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 100]))
    n = 64
    for i in range(50):
        f = GridFunction(rng.standard_normal(n))
        g = GridFunction(rng.standard_normal(n))
        p = float(rng.uniform(1.1, 4.0))
        q = p / (p - 1.0)
        yield f"holder:{i}", abs(inner(f, g)) > norm(f, p) * norm(g, q) * (1 + 1e-12)
        lo, hi = sorted(rng.uniform(1.0, 6.0, size=2))
        yield f"norm_monotone:{i}", norm(f, lo) > norm(f, hi) * (1 + 1e-12)
    for level in range(7):
        for index in range(1 << level):
            q_int = DyadicInterval(level, index)
            for factor in (1.0, 2.0, 3.5, 10.0):
                got = dilate_interval(q_int, factor, n).measure
                yield f"dilate:{q_int}x{factor}", got > min(1.0, factor * q_int.length) + 2.0 / n + 1e-12


def _suite_distance(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 200]))
    n = 64
    for i in range(30):
        f = GridFunction(rng.standard_normal(n) * rng.lognormal(0, 1))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        s = float(rng.uniform(0.1, 1.5) * norm(f, p))
        for solver, ambient in (
            (distance_mod.dist_l1_to_lp_ball, 1.0),
            (distance_mod.dist_linf_to_lp_ball, math.inf),
        ):
            res = solver(f, s, p)
            yield f"feasibility:{i}:{ambient}", norm(res.minimizer, p) > s * (1 + distance_mod.FEAS_TOL)
            yield f"attainment:{i}:{ambient}", norm(f - res.minimizer, ambient) > res.value * (1 + distance_mod.FEAS_TOL) + 1e-12
            lam = float(rng.uniform(0.5, 2.0))
            scaled = solver(lam * f, lam * s, p)
            yield f"scaling:{i}:{ambient}", abs(scaled.value - lam * res.value) > 1e-8 * max(1.0, res.value)
            # monotone in s and vanishing at the norm
            yield f"monotone:{i}:{ambient}", solver(f, s * 1.5, p).value > res.value * (1 + 1e-9) + 1e-12
            yield f"vanishing:{i}:{ambient}", solver(f, norm(f, p), p).value > 1e-12


def _suite_cz(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 300]))
    for i in range(CZ_TRIALS):
        n = int(rng.choice([64, 256]))
        f = GridFunction(rng.standard_normal(n) * np.exp(rng.standard_normal(n)))
        lam = norm(f, 1) * float(10.0 ** rng.uniform(0.0, 2.0))
        d = cz_mod.cz_decompose(f, lam)
        for check in cz_mod.verify_cz(d, f):
            yield f"cz:{i}:{check.name}", not check.passed


def _suite_operators(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 400]))
    n = cfg.n
    x = np.arange(n) / n
    H = make_operator("hilbert", n)
    cos_f = GridFunction(np.cos(2 * np.pi * x))
    sin_f = GridFunction(np.sin(2 * np.pi * x))
    yield "hilbert_cos_to_sin", norm(apply(H, cos_f) - sin_f, np.inf) > 1e-10
    for kind in cfg.operators:
        T = make_operator(kind, n, cfg.seed)
        Ts = adjoint(T)
        for i in range(PROBE_TRIALS):
            fp = GridFunction(rng.standard_normal(n))
            gp = GridFunction(rng.standard_normal(n))
            lhs = inner(apply(T, fp), gp)
            rhs = inner(fp, apply(Ts, gp))
            yield f"adjoint_pairing:{kind}:{i}", abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs))
            a, b = rng.standard_normal(2)
            lin = apply(T, GridFunction(a * fp.values + b * gp.values))
            lin_ref = a * apply(T, fp) + b * apply(T, gp)
            yield f"linearity:{kind}:{i}", norm(lin - lin_ref, np.inf) > 1e-10 * max(1.0, norm(lin_ref, np.inf))
        probe = nyquist_free(GridFunction(rng.standard_normal(n)))
        twice = apply(T, apply(T, probe))
        demeaned = probe.values - probe.values.mean()
        target = -demeaned if kind == "hilbert" else demeaned
        yield f"involution:{kind}", norm(twice - GridFunction(target), np.inf) > 1e-9


def _suite_stability(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    small = replace(cfg, corpus_counts=tuple((name, min(1, cnt)) for name, cnt in cfg.corpus_counts), s_count=5)
    corpus = generate_corpus(small)
    bound_p = 1.0 + 2.0 ** ((small.p - 1.0) / small.p)
    for label, f in corpus:
        for kind in small.operators[:2]:
            T = make_operator(kind, small.n, small.seed)
            for s in small.s_values():
                _, rep = bourgain_construct(f, T, s, small.p)
                yield f"ratio_p:{label}:{kind}:{s:g}", rep.ratio_p > bound_p * (1 + 1e-9)
                yield f"ratio_f:{label}:{kind}:{s:g}", rep.ratio_f > 2.0 * (1 + 1e-9)
                # counted also where it is skipped: no mass to split, or no level
                yield f"level_identity:{label}:{kind}:{s:g}", (
                    rep.a > DEGENERATE_TOL
                    and rep.lam > 0
                    and abs(rep.lam ** (small.p - 1.0) * rep.a - rep.b**small.p) > 1e-9 * max(1.0, rep.b**small.p)
                )


def _suite_dual(cfg: ExperimentConfig) -> Iterator[tuple[str, bool]]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 600]))
    n = 64
    for kind in cfg.dual_operators:
        T = make_operator(kind, n, cfg.seed)
        for i in range(20):
            beta = GridFunction(rng.standard_normal(n))
            g = GridFunction(rng.standard_normal(n))
            pair = annihilator_pair(beta, T)
            yield f"annihilation:{kind}:{i}", abs(duality_pairing((g, apply(T, g)), pair)) > 1e-9
        f = GridFunction(np.abs(rng.standard_normal(n)) + 0.5)
        f = f * (1.0 / norm(f, 1))
        inst = make_instance(f, T, 0.5 * norm(f, cfg.p), cfg.p)
        result = min_constant(inst, tol=cfg.dual_tol)
        yield f"dual_certification:{kind}", result.status != "certified"


# every suite yields one (name, failed) pair per check; verify_all counts them
_SUITES = {
    "grid": _suite_grid,
    "distance": _suite_distance,
    "cz": _suite_cz,
    "operators": _suite_operators,
    "stability": _suite_stability,
    "dual": _suite_dual,
}


def verify_all(cfg: ExperimentConfig) -> dict:
    """Run every module's invariant suite; returns a JSON-ready summary."""
    suites = {}
    for name, suite in _SUITES.items():
        checks = list(suite(cfg))
        failed = [check for check, bad in checks if bad]
        suites[name] = {"checks": len(checks), "failures": len(failed), "failed": failed[:20]}
    ok = all(summary["failures"] == 0 for summary in suites.values())
    return {"config": json.loads(cfg.to_json()), "suites": suites, "ok": ok}
