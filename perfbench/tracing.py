"""Spans around the library's public functions, recorded from outside the library.

``Tracer`` replaces each traced function at every module attribute that holds
it (its defining module and each module that imported it by name), records a
span per call and puts the originals back on exit.  Spans stay in memory and
are written to JSONL at the end.  Per-layer metrics are derived from them:
self time is a span's duration minus that of its children, and the work
counts are read from the functions' public return values.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

from stablab import cz, distance, dual_search, grid, harness, operators, stability

MODULES = {
    "grid": grid,
    "distance": distance,
    "cz": cz,
    "operators": operators,
    "stability": stability,
    "dual_search": dual_search,
    "harness": harness,
}

# function name -> defining module
TRACED = {
    "norm": "grid",
    "apply": "operators",
    "as_matrix": "operators",
    "cz_decompose": "cz",
    "dist_l1_to_lp_ball": "distance",
    "dist_linf_to_lp_ball": "distance",
    "bourgain_construct": "stability",
    "make_instance": "dual_search",
    "feasible": "dual_search",
    "min_constant": "dual_search",
    "project_lp_ball": "dual_search",
    "certified": "dual_search",
    "generate_corpus": "harness",
    "make_operator": "harness",
}

# DualInstance methods whose first call per instance builds the dense graph data
GRAPH_SETUP = ("matrix", "graph_inverse")
GRAPH_SPAN = "dual_search.graph_setup"
# dense n x n matvecs per feasible iteration (graph inverse, M^T and M), 8 bytes each
MATVECS_PER_ITERATION = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    row: int | None
    counts: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _span_name(layer: str, args, kwargs) -> str:
    if layer == "operators.apply":
        T = args[0] if args else kwargs["T"]
        return f"{layer}.{T.kind}"
    if layer == "dual_search.project_lp_ball":
        p = args[2] if len(args) > 2 else kwargs["p"]
        return f"{layer}.{'p2' if float(p) == 2.0 else 'pother'}"
    return layer


def _counts(layer: str, args, kwargs, out) -> dict | None:
    if layer == "cz.cz_decompose":
        return {"cubes": len(out.cubes)}
    if layer == "dual_search.feasible":
        inst = args[0] if args else kwargs["inst"]
        return {"iterations": int(out.iterations), "status": out.status, "n": int(inst.n)}
    if layer == "dual_search.min_constant":
        return {"flagged": bool(out.flagged), "status": out.status}
    return None


class Tracer:
    """Install with ``with Tracer() as tr:``; set ``tr.row`` before each row."""

    def __init__(self):
        self.spans: list[Span] = []
        self.row: int | None = None
        self.paused = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._graph_seen: dict[str, set[int]] = {m: set() for m in GRAPH_SETUP}
        self.t0 = time.perf_counter()

    def start_row(self, rid: int) -> None:
        # dual instances live for one row, so ids seen in earlier rows may be reused
        self.row = rid
        for seen in self._graph_seen.values():
            seen.clear()

    # -- recording ----------------------------------------------------------

    def _record(self, name, fn, args, kwargs, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.row, None)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.counts = _counts(layer, args, kwargs, out)
        return out

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer._record(_span_name(layer, args, kwargs), fn, args, kwargs, layer)

        return wrapper

    def _wrap_graph(self, method: str, fn):
        tracer = self
        seen = self._graph_seen[method]

        @functools.wraps(fn)
        def wrapper(inst, *args, **kwargs):
            if tracer.paused or id(inst) in seen:
                return fn(inst, *args, **kwargs)
            seen.add(id(inst))
            return tracer._record(GRAPH_SPAN, fn, (inst,) + args, kwargs, GRAPH_SPAN)

        return wrapper

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for fname, home in TRACED.items():
            original = getattr(MODULES[home], fname, None)
            if original is not None:
                wrappers[fname] = (original, self._wrap(f"{home}.{fname}", original))
        for module in MODULES.values():
            for fname, (original, wrapper) in wrappers.items():
                if getattr(module, fname, None) is original:
                    self._saved.append((module, fname, original))
                    setattr(module, fname, wrapper)
        cls = getattr(dual_search, "DualInstance", None)
        for method in GRAPH_SETUP:
            original = cls.__dict__.get(method) if cls is not None else None
            if original is not None:
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap_graph(method, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, fname, original = self._saved.pop()
            setattr(owner, fname, original)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                rec = {"id": i, "name": sp.name, "start": sp.start - self.t0, "end": sp.end - self.t0,
                       "parent": sp.parent, "row": sp.row}
                if sp.counts:
                    rec.update(sp.counts)
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYER_TIMES = (
    "cz.cz_decompose", "distance.dist_l1_to_lp_ball", "distance.dist_linf_to_lp_ball", "grid.norm",
    "operators.apply.hilbert", "operators.apply.haar_transform", "operators.apply.identity_minus_mean",
    "operators.as_matrix", "stability.bourgain_construct", "dual_search.feasible",
    "dual_search.min_constant", "dual_search.project_lp_ball.p2", "dual_search.project_lp_ball.pother",
    "dual_search.certified",
)
SELF_ONLY = ("dual_search.graph_setup", "dual_search.make_instance", "harness.generate_corpus",
             "harness.make_operator")


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == name:
            return True
        j = spans[j].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls, self time and work counts from one traced pass.

    A call that raised has no counts and adds nothing to them.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.dur
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, sp in enumerate(spans):
        calls[sp.name] += 1
        self_s[sp.name] += sp.dur - child[i]

    out: dict[str, float] = {}
    for name in LAYER_TIMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s[name]

    out["cz.cz_decompose.cubes"] = sum(
        sp.counts["cubes"] for sp in spans if sp.name == "cz.cz_decompose" and sp.counts
    )

    feas = [i for i, sp in enumerate(spans) if sp.name == "dual_search.feasible" and spans[i].counts]
    iterations = sum(spans[i].counts["iterations"] for i in feas)
    wasted = sum(spans[i].counts["iterations"] for i in feas if spans[i].counts["status"] != "feasible")
    dense_rows = {sp.row for sp in spans if sp.name == GRAPH_SPAN}
    dense_bytes = sum(
        spans[i].counts["iterations"] * MATVECS_PER_ITERATION * 8 * spans[i].counts["n"] ** 2
        for i in feas if spans[i].row in dense_rows
    )
    setup_in_feasible = sum(
        sp.dur for j, sp in enumerate(spans) if sp.name == GRAPH_SPAN and _has_ancestor(spans, j, "dual_search.feasible")
    )
    feas_s = sum(spans[i].dur for i in feas)
    out["dual_search.feasible.iterations"] = iterations
    out["dual_search.feasible.iterations_wasted"] = wasted
    out["dual_search.feasible.useful_ratio"] = (iterations - wasted) / iterations if iterations else 0.0
    out["dual_search.feasible.inconclusive"] = sum(spans[i].counts["status"] == "inconclusive" for i in feas)
    out["dual_search.feasible.s_per_iteration"] = (feas_s - setup_in_feasible) / iterations if iterations else 0.0
    out["dual_search.feasible.computed_mb_per_iteration"] = dense_bytes / iterations / 1e6 if iterations else 0.0

    mins = {i for i, sp in enumerate(spans) if sp.name == "dual_search.min_constant" and sp.counts}
    out["dual_search.min_constant.bisection_steps"] = sum(spans[i].parent in mins for i in feas)
    out["dual_search.min_constant.flagged"] = sum(spans[i].counts["flagged"] for i in mins)
    return out
