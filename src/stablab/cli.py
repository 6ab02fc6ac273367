"""Command-line front end.

Subcommands: distance, cz, construct, redecompose, dual, verify, report.
Results are emitted as JSON (single computations) or CSV (campaign reports);
all outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .cz import cz_decompose
from .distance import dist_l1_to_lp_ball, dist_linf_to_lp_ball
from .dual_search import make_instance, min_constant
from .grid import DimensionError, GridFunction, GridSet, mask
from .harness import (
    ExperimentConfig,
    SUPPORT_LEFT_HALF,
    default_config,
    generate_corpus,
    left_half,
    make_operator,
    run_theorem1,
    run_theorem2,
    verify_all,
)
from .operators import KINDS, apply
from .stability import bourgain_construct, kclosed_redecompose


class InputError(Exception):
    """A config, input file or numeric flag that cannot be read or is not valid."""


@contextmanager
def _input_errors():
    # ConfigError and the library's domain checks on radii, levels and
    # tolerances are ValueErrors; OSError covers files that cannot be read or written
    try:
        yield
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _subcommand(subs, name: str, summary: str, flags: str) -> argparse.ArgumentParser:
    """A subcommand taking the shared flags it reads, named space-separated.

    Flags are taken in full only: an abbreviation could silently stand for another flag.
    """
    table = {
        "config": dict(help="path to a JSON experiment config"),
        "seed": dict(type=int, help="override the config seed"),
        "n": dict(type=int, help="override the grid size"),
        "p": dict(type=float, help="override the ball exponent"),
        "s": dict(type=float, default=1.0, help="ball radius"),
        "operator": dict(choices=KINDS, help="operator kind"),
        "support": dict(help=f"'{SUPPORT_LEFT_HALF}'; dual also takes a path to a JSON 0/1 mask"),
        "out": dict(help="output path (.json or .csv); default stdout"),
        "input": dict(help="path to a JSON array holding the grid function"),
    }
    sub = subs.add_parser(name, help=summary, allow_abbrev=False)
    for flag in flags.split():
        sub.add_argument(f"--{flag}", **table[flag])
    return sub


def _load_config(args, keys=("seed", "n", "p", "support")) -> ExperimentConfig:
    if args.config:
        with _input_errors(), open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    else:
        cfg = default_config()
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    # the config admits only the named support choices: a mask path is an error
    with _input_errors():
        return replace(cfg, **overrides)


def _load_function(args, cfg: ExperimentConfig, support: GridSet | None = None) -> GridFunction:
    if args.input:
        with _input_errors(), open(args.input) as fh:
            return GridFunction.from_json(fh.read())
    # the corpus's first draw alone: each draw is seeded by (seed, family, index), not by the draws before it
    first = next(((name, 1) for name, count in cfg.corpus_counts if count > 0), None)
    if first is None:
        raise InputError("the config's corpus is empty: give the function with --input")
    return generate_corpus(replace(cfg, corpus_counts=(first,)), support)[0][1]


def _load_support(args, cfg: ExperimentConfig) -> GridSet | None:
    if not args.support:
        return None
    if args.support == SUPPORT_LEFT_HALF:
        return left_half(cfg.n)
    with _input_errors(), open(args.support) as fh:
        support = GridSet.from_json(fh.read())
        if support.n != cfg.n:
            raise DimensionError(f"support mask has {support.n} cells, the grid has n={cfg.n}")
    return support


def _emit(args, text: str) -> None:
    if args.out:
        with _input_errors(), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_distance(args) -> int:
    cfg = _load_config(args)
    f = _load_function(args, cfg)
    solver = dist_linf_to_lp_ball if args.ambient == "inf" else dist_l1_to_lp_ball
    with _input_errors():
        result = solver(f, args.s, cfg.p)
    _emit(args, result.to_json())
    return 0


def _cmd_cz(args) -> int:
    cfg = _load_config(args)
    f = _load_function(args, cfg)
    with _input_errors():
        d = cz_decompose(f, args.level)
    _emit(args, d.to_json())
    return 0


def _cmd_construct(args) -> int:
    cfg = _load_config(args)
    f = _load_function(args, cfg)
    T = make_operator(args.operator or cfg.operators[0], cfg.n, cfg.seed)
    with _input_errors():
        _, report = bourgain_construct(f, T, args.s, cfg.p)
    _emit(args, report.to_json())
    return 0


def _cmd_redecompose(args) -> int:
    cfg = _load_config(args)
    f = _load_function(args, cfg)
    T = make_operator(args.operator or cfg.operators[0], cfg.n, cfg.seed)
    with _input_errors():
        Tf = apply(T, f)
        u1 = dist_l1_to_lp_ball(f, args.s, cfg.p).minimizer
        v1 = dist_l1_to_lp_ball(Tf, args.s, cfg.p).minimizer
        _, _, report = kclosed_redecompose(f, T, (f - u1, Tf - v1, u1, v1), cfg.p)
    _emit(args, report.to_json())
    return 0


def _cmd_dual(args) -> int:
    # --support names a set here, not a config choice; --tol overrides the config's dual.tol
    cfg = _load_config(args, keys=("seed", "n", "p", "dual_tol"))
    support = _load_support(args, cfg)
    f = _load_function(args, cfg, support)
    if support is not None and args.input:
        # user-supplied functions are masked and renormalized onto the set
        with _input_errors():
            masked = mask(f, support).values
        total = np.abs(masked).mean()
        f = GridFunction(masked / total if total > 0 else masked)
    T = make_operator(args.operator or cfg.dual_operators[0], cfg.n, cfg.seed)
    with _input_errors():
        inst = make_instance(f, T, args.s, cfg.p, support)
        result = min_constant(inst, tol=cfg.dual_tol)
    _emit(args, result.to_json())
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    summary = verify_all(cfg)
    _emit(args, json.dumps(summary, sort_keys=True) + "\n")
    return 0 if summary["ok"] else 1


def _cmd_report(args) -> int:
    cfg = _load_config(args)
    with _input_errors():
        os.makedirs(args.outdir, exist_ok=True)
    csv1, summary1 = run_theorem1(cfg)
    csv2, summary2 = run_theorem2(cfg)
    text = json.dumps({"theorem1": summary1, "theorem2": summary2}, sort_keys=True) + "\n"
    with _input_errors():
        for name, body in (("theorem1.csv", csv1), ("theorem2.csv", csv2), ("summary.json", text)):
            with open(os.path.join(args.outdir, name), "w") as fh:
                fh.write(body)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stablab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _subcommand(subs, "distance", "distance from f to an L^p ball", "config seed n p s out input")
    sub.add_argument("--ambient", choices=["1", "inf"], default="1")
    sub.set_defaults(func=_cmd_distance)

    sub = _subcommand(subs, "cz", "stopping-time decomposition of f", "config seed n out input")
    sub.add_argument("--level", type=float, default=1.0, help="decomposition level")
    sub.set_defaults(func=_cmd_cz)

    sub = _subcommand(subs, "construct", "stable near-minimizer construction",
        "config seed n p s operator out input")
    sub.set_defaults(func=_cmd_construct)

    sub = _subcommand(subs, "redecompose", "graph redecomposition of an ambient split",
        "config seed n p s operator out input")
    sub.set_defaults(func=_cmd_redecompose)

    sub = _subcommand(subs, "dual", "smallest workable constant by convex feasibility",
        "config seed n p s operator support out input")
    sub.add_argument("--tol", type=float, dest="dual_tol", help="override the config's dual.tol")
    sub.set_defaults(func=_cmd_dual)

    sub = _subcommand(subs, "verify", "run every module's invariant suite", "config seed n p out")
    sub.set_defaults(func=_cmd_verify)

    sub = _subcommand(subs, "report", "run both campaigns and write CSV reports", "config seed n p support")
    sub.add_argument("--outdir", default="reports")
    sub.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"stablab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
