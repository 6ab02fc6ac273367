"""stablab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload explicit-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  One caller in one process
runs the workload's rows back to back, cycling through the row set, until the
time is up (always at least one whole pass).  Every row is checked by the
benchmark itself.  The last line of standard output is the result JSON; the
line before it records the environment and the details behind the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced pass, reports the per-layer metrics and the tracing overhead,
and writes the spans to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads and inherited by the set-up probes:
# the workloads' matvecs are too small for a second thread to pay, and two
# threads that spin-wait for each other on a shared 2-core machine time the
# neighbours' load rather than the library (cpu_s read 1.2-1.4x wall_s).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5  # child processes timed for setup_s; the median is reported
TAIL_BEYOND = 10  # rows that must lie beyond the reported tail percentile
CPUS = sorted(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# On the shared 2-core host of the README's figures, each vCPU slowed by up to
# 1.4x for a second or two at a time, independently of the other, and the
# host's speed as a whole drifted by tens of percent over minutes.  So, at most CAL_EVERY_S
# apart and before every row that follows such a gap, the workload's speed
# kernel (a library-free miniature of its inner loop, see workloads.py) is
# timed on every CPU; the process is pinned to the quickest, and each row
# sample is scaled by the kernel's reference time over the mean of its
# timings on that CPU just before and just after the sample.  No change to the
# library moves the kernel.  The unscaled times are in the detail line.
CAL_EVERY_S = 0.2


def calibrate(kernel) -> float:
    """Mean of three timings of a freshly built speed kernel, so that it sees
    the machine's slow moments in the share a row does."""
    run = kernel()
    t0 = time.perf_counter()
    for _ in range(3):
        run()
    return (time.perf_counter() - t0) / 3


class Speed:
    """The speed kernel's timings on every CPU through a run."""

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.marks: list[tuple[float, dict[int, float]]] = []  # (when, {cpu: kernel time})

    def due(self) -> bool:
        return not self.marks or time.perf_counter() - self.marks[-1][0] >= CAL_EVERY_S

    def measure(self) -> tuple[int, int]:
        """Time the kernel on every CPU and pin this process (and the children
        it starts) to the quickest; returns the mark's index and that CPU."""
        times = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = calibrate(self.kernel)
        cpu = min(times, key=times.get)
        os.sched_setaffinity(0, {cpu})
        self.marks.append((time.perf_counter(), times))
        return len(self.marks) - 1, cpu

    def scale(self, mark: int, cpu: int) -> float:
        """Reference over kernel time around a sample taken after `mark` on `cpu`."""
        before = self.marks[mark][1][cpu]
        after = self.marks[mark + 1][1][cpu] if mark + 1 < len(self.marks) else before
        return self.ref_s / (0.5 * (before + after))

    def kernel_times(self) -> list[float]:
        return [t for _, times in self.marks for t in times.values()]


def load_library() -> None:
    """Put the checkout's ``src`` first on the path; fail when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "stablab", "__init__.py")):
        sys.exit(f"perfbench: no stablab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import stablab

    if os.path.dirname(os.path.abspath(stablab.__file__)) != os.path.join(SRC, "stablab"):
        sys.exit(f"perfbench: imported stablab from {stablab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if cfg is not None:
                        cfg.restype = ctypes.c_char_p
                        info["config"] = cfg().decode()
                    info["library"] = os.path.basename(path)
                    return info
    return info


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as a, open(os.path.join(d, "type")) as b, \
                    open(os.path.join(d, "size")) as c:
                out[f"L{a.read().strip()}{b.read().strip()[0].lower()}"] = c.read().strip()
        except OSError:
            continue
    return out


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(CPUS),
        "cpus": CPUS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches": _caches(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Per-row times, constants and failures over the samples of one run."""

    def __init__(self, rows, workload=None):
        self.rows = rows
        # the workload's speed kernel scales the times; without one they are unscaled
        self.speed = Speed(workload.kernel, workload.kernel_ref_s) if workload is not None else None
        self.wall = {r.rid: [] for r in rows}
        self.cpu = {r.rid: [] for r in rows}
        self.mark = {r.rid: [] for r in rows}  # (speed mark, CPU) of each sample
        self._at = (0, None)
        self.const: dict[int, float] = {}
        self.flagged: dict[int, bool] = {}
        self.attempted = 0
        self.failed = 0

    def run_row(self, row, tracer=None) -> None:
        import workloads

        self.attempted += 1
        if self.speed is not None and self.speed.due():
            self._at = self.speed.measure()
        if tracer is not None:
            tracer.start_row(row.rid)
        try:
            prep = workloads.prepare(row)
            c0, t0 = time.process_time(), time.perf_counter()
            out = workloads.call(row, prep)
            t1, c1 = time.perf_counter(), time.process_time()
            self.wall[row.rid].append(t1 - t0)
            self.cpu[row.rid].append(c1 - c0)
            self.mark[row.rid].append(self._at)
            if tracer is not None:
                tracer.paused = True
            ok, const = workloads.check(row, prep, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, const = False, math.nan
            out = None
        finally:
            if tracer is not None:
                tracer.paused = False
        if not ok:
            self.failed += 1
            print(f"perfbench: row {row.rid} ({row.label} {row.kind} s={row.s!r}) failed its check",
                  file=sys.stderr)
        self.const.setdefault(row.rid, const)
        if row.dual and out is not None:
            self.flagged.setdefault(row.rid, bool(out.flagged))

    def run_pass(self, tracer=None) -> None:
        for row in self.rows:
            self.run_row(row, tracer)

    def run(self, seconds: float) -> None:
        """One whole pass, then the rows again in the same order until time is up."""
        deadline = time.perf_counter() + seconds
        self.run_pass()
        i = 0
        while time.perf_counter() < deadline:
            self.run_row(self.rows[i % len(self.rows)])
            i += 1
        if self.speed is not None:
            self.speed.measure()  # the timing after the last samples
            os.sched_setaffinity(0, CPUS)

    def row_times(self, which: dict, scaled: bool = True) -> list[float]:
        """Each row's median time over its samples, scaled to the reference
        speed unless ``scaled`` is false or the loop has no speed kernel."""
        if not scaled or self.speed is None:
            return [statistics.median(v) for v in which.values() if v]
        return [statistics.median(t * self.speed.scale(*m) for t, m in zip(v, self.mark[rid]))
                for rid, v in which.items() if v]

    def timed_total(self) -> float:
        return sum(sum(v) for v in self.wall.values())


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each one's
    n-th of [0, 1] (midpoint rule, 64 points a slice); the maximum for q = 1.
    A single order statistic is the time of one row; with two or three samples
    a row, a dual row's time moves by 10% from run to run, and where it sits
    next to a gap in the row times (the p68 of `dual-report`) the quantile
    follows it."""
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if q >= 1.0 or n == 1:
        return float(ordered[-1])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = (np.arange(64 * n) + 0.5) / (64 * n)
    weights = np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)).reshape(n, 64).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND values beyond it
    (100, the maximum, with TAIL_BEYOND values or fewer) and its estimate."""
    n = len(values)
    q = max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))) if n > TAIL_BEYOND else 100
    return q, quantile(values, q / 100.0)


# ---------------------------------------------------------------------------
# setup time
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child side: import, corpus, operators and (dual rows) make_instance."""
    import workloads

    rows = workloads.WORKLOADS[name].rows(seed)
    for row in rows:
        workloads.prepare(row)
    print(f"ready {len(rows)}", flush=True)


def time_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Process start until the first row could run, in fresh child processes,
    each on the CPU its speed measurement chose: (seconds, speed scale) pairs."""
    import workloads

    speed = Speed(workloads.setup_kernel, workloads.SETUP_KERNEL_REF_S)
    runs = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        at = speed.measure()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            runs.append((time.perf_counter() - start, at))
            child.stdout.read()
            if child.wait(timeout=120) != 0 or not line.startswith("ready"):
                sys.exit(f"perfbench: setup probe failed with code {child.returncode}")
    speed.measure()
    os.sched_setaffinity(0, CPUS)
    return [(t, speed.scale(*at)) for t, at in runs]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Loop, dict, dict]:
    import workloads

    workload = workloads.WORKLOADS[name]
    setup = time_setup(name, seed)
    loop = Loop(workload.rows(seed), workload)
    loop.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the metrics' own arrays
    wall = loop.row_times(loop.wall)
    wall_s = sum(wall)
    q, tail_s = tail(wall)
    consts = [c for c in loop.const.values() if not math.isnan(c)]
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "wall_s": (wall_s, "s"),
        "rows_per_s": (len(wall) / wall_s, "1/s"),
        "row_ms_p50": (1e3 * quantile(wall, 0.5), "ms"),
        "row_ms_tail": (1e3 * tail_s, "ms"),
        "cpu_s": (sum(loop.row_times(loop.cpu)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "constant_mean": (statistics.fmean(consts) if consts else math.nan, "ratio"),
        "constant_max": (max(consts) if consts else math.nan, "ratio"),
    }
    detail = {
        "rows": len(loop.rows),
        "row_samples": sum(len(v) for v in loop.wall.values()),
        "row_ms_tail_percentile": q,
        "row_ms_tail_rows": len(wall),
        "setup_samples_s": [t for t, _ in setup],
        "setup_scales": [f for _, f in setup],
        "wall_s_unscaled": sum(loop.row_times(loop.wall, scaled=False)),
        "speed_marks": len(loop.speed.marks),
        "kernel_ms_median": 1e3 * statistics.median(loop.speed.kernel_times()),
        "kernel_ms_best": 1e3 * min(loop.speed.kernel_times()),
        "kernel_ref_ms": 1e3 * workload.kernel_ref_s,
        "failed_frac": loop.failed / loop.attempted,
    }
    if workloads.WORKLOADS[name].dual:
        detail.update(
            flagged=sum(loop.flagged.values()),
            flagged_frac=sum(loop.flagged.values()) / len(loop.rows),
            c_star_mean=metrics["constant_mean"][0],
        )
    else:
        detail.update(ratio_T_max=metrics["constant_max"][0])
    return loop, metrics, detail


def traced(name: str, seed: int) -> tuple[Loop, dict, dict]:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    plain = Loop(workload.rows(seed))
    plain.run_pass()
    with tracing.Tracer() as tracer:
        loop = Loop(workload.rows(seed))
        loop.run_pass(tracer)
    per_layer = tracing.layer_metrics(tracer.spans)
    untraced_s, traced_s = plain.timed_total(), loop.timed_total()
    per_layer.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
    tracer.write_jsonl(path)
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    metrics = {k: (v, _unit(k)) for k, v in per_layer.items()}
    return loop, metrics, {"rows": len(loop.rows), "trace_file": os.path.relpath(path, ROOT)}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric == "dual_search.feasible.s_per_iteration":
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_mb_per_iteration"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    if args.trace:
        loop, metrics, detail = traced(args.workload, args.seed)
    else:
        loop, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment())
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
