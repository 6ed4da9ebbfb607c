#!/usr/bin/env python3
"""fishgrad benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ird_xor --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Run from the repository root; fishgrad is imported from ``src/`` next to this
directory, and the run fails without printing a result if it is missing.
``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs each item of the workload's input pool once untraced and once traced, in
turns, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced seconds per op). Every line but the last is for people; the
last is one JSON object with the result. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("ird_xor", "cli_grid_xor")
END_TO_END_UNITS = {
    "setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "samples_scored_per_s": "rows/s",
    "peak_rss_mb": "MB", "val_score": "score", "ops_ok_frac": "ratio",
}


def import_fishgrad() -> float:
    """Import fishgrad from this checkout's ``src/``; seconds taken."""
    src = ROOT / "src"
    if not (src / "fishgrad" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fishgrad sources under {src}")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import fishgrad
    elapsed = time.perf_counter() - started
    if Path(fishgrad.__file__).resolve().parent != src / "fishgrad":
        raise SystemExit(f"benchmark: imported fishgrad from {fishgrad.__file__}")
    return elapsed


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import fishgrad
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        # FISHGRAD_THREADS caps the CLI's --threads; the traced run prints the
        # worker counts that reached run_grid.
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "FISHGRAD_THREADS")},
        "fishgrad": fishgrad.__version__, "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def host_probe() -> float:
    """Best of 5 timings of a fixed small-matmul loop, in seconds.

    Taken at the start and end of every run, so host-speed drift shows next
    to the results. The kernel mixes interpreter work and small numpy calls,
    like the workloads do.
    """
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(32, 64)), rng.normal(size=(64, 48))
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        acc = 0.0
        for _ in range(1500):
            acc += float(np.tanh(a @ b)[0, 0])
        best = min(best, time.perf_counter() - started)
    return best


def tail(durations: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND ops beyond it, by nearest rank; the median when there are too
    few ops for any percentile above 50."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if rank <= n - TAIL_BEYOND:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Ops, checks and digests of one benchmark run."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.quality: dict[int, float] = {}
        self.bytes_written = 0

    def op(self, item: int, tracer=None) -> float:
        """Run item ``item`` once and check it; seconds spent in the op."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = self.workload.op(self.state, item)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            self.fail(item, traceback.format_exc(limit=3))
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        if tracer is not None:
            with tracer.paused():
                self.verify(item, out)
        else:
            self.verify(item, out)
        return elapsed

    def verify(self, item: int, out) -> None:
        first = item not in self.digests
        try:
            problems = self.workload.check(self.state, item, out, first)
            if not problems:
                digest = self.workload.digest(out)
                if first:
                    self.digests[item] = digest
                    self.quality[item] = self.workload.quality(out)
                elif digest != self.digests[item]:
                    problems = [f"digest {digest} != {self.digests[item]} on repeat"]
                if hasattr(self.workload, "bytes_written"):
                    self.bytes_written += self.workload.bytes_written(out)
        except Exception:  # noqa: BLE001 - a check that raises fails the op
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.fail(item, "; ".join(problems))

    def fail(self, item: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"item {item}: {why}")


def fresh_setup_s(name: str, seed: int) -> float:
    """Import plus set-up time, measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def measure(workload, seed: int, seconds: float, workdir: str):
    """Untraced run: set-up timed in fresh interpreters, one warm-up op, then
    ops until the timed ops add up to ``seconds`` and every pool item has run."""
    setup_times = [fresh_setup_s(workload.name, seed) for _ in range(SETUP_REPEATS)]
    run = Run(workload, workload.setup(seed, workdir))
    run.op(0)  # warm-up; its digest is the reference for item 0
    durations: list[float] = []
    total = 0.0
    while total < seconds or len(durations) < workload.pool:
        durations.append(run.op(len(durations) % workload.pool))
        total += durations[-1]
    p50 = statistics.median(durations)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": p50,
        "op_s.tail": tail_s,
        "samples_scored_per_s": workload.rows_per_op * len(durations) / total,
        "peak_rss_mb": peak_rss_mb(),
        "val_score": statistics.fmean(run.quality.values()) if run.quality else 0.0,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    notes = {
        "ops_timed": len(durations), "op_s.tail_percentile": tail_pct,
        "ops_beyond_tail": sum(d > tail_s for d in durations),
        "setup_runs_s": setup_times,
        "ops_failed_frac": run.failed / run.attempted,
    }
    for unit in ("cells", "finetunes"):
        per_op = getattr(workload, f"{unit}_per_op")
        if per_op:
            notes[f"{unit}_per_s"] = per_op * len(durations) / total
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def measure_traced(workload, seed: int, workdir: str, package):
    """Untraced and traced ops in turns over the pool; per-layer metrics.

    Alternating the two keeps host-speed drift out of the overhead figure.
    """
    from tracing import Tracer, layer_metrics, train_span_per_wall
    tracer = Tracer()
    run = Run(workload, workload.setup(seed, workdir))
    run.op(0)  # warm-up
    with tracer.installed(package):
        traced_run = Run(workload, workload.setup(seed, workdir))
    untraced = traced = 0.0
    for item in range(workload.pool):
        untraced += run.op(item)
        with tracer.installed(package):
            traced += traced_run.op(item, tracer)
        tracer.end_op()
    for item, digest in traced_run.digests.items():
        if digest != run.digests.get(item):  # tracing must not change any result
            traced_run.fail(item, f"traced digest {digest} != {run.digests.get(item)}")
    tracer.counts["cli.bytes_written"] = traced_run.bytes_written
    metrics = layer_metrics(tracer)
    per_op = (traced - untraced) / workload.pool
    metrics["trace.overhead_s"] = (per_op, "s")
    metrics["trace.overhead_frac"] = (per_op * workload.pool / untraced, "ratio")
    run.attempted += traced_run.attempted
    run.failed += traced_run.failed
    run.problems += traced_run.problems
    notes = {"pool": workload.pool, "untraced_s_per_op": untraced / workload.pool,
             "traced_s_per_op": traced / workload.pool,
             "log_prob_gradient_calls_per_op":
                 metrics["autodiff.log_prob_gradient.calls"][0] / workload.pool,
             "rows_scored_per_op": metrics["fisher.rows_scored"][0] / workload.pool,
             "search.run_grid.train_span_per_wall": train_span_per_wall(tracer),
             "search.run_grid.workers": sorted(tracer.grid_workers),
             "spans": json.dumps(tracer.spans())}
    if notes["rows_scored_per_op"] != workload.rows_per_op:
        run.fail(-1, f"traced rows scored per op {notes['rows_scored_per_op']} "
                     f"!= {workload.rows_per_op}")
    return run, metrics, notes


def run_one(args) -> int:
    import_s = import_fishgrad()
    import fishgrad
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    if args.setup_only:
        try:
            started = time.perf_counter()
            workload.setup(args.seed, workdir)
            print(f"setup_s {import_s + time.perf_counter() - started!r}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    probe_start = host_probe()
    try:
        if args.trace:
            run, metrics, notes = measure_traced(workload, args.seed, workdir, fishgrad)
        else:
            run, metrics, notes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = host_probe()
    if args.trace:
        metrics["host.probe_s"] = (statistics.fmean([probe_start, probe_end]), "s")
    notes.update({"host.probe_start_s": probe_start, "host.probe_end_s": probe_end})
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for name, value in notes.items():
        print(f"  note {name}: {value}")
    print("  digests " + " ".join(f"{k}:{v}" for k, v in sorted(run.digests.items())))
    verdict = "passed" if run.failed == 0 else "FAILED"
    print(f"  checks {verdict}: {run.attempted - run.failed}/{run.attempted} ops ok")
    for problem in run.problems:
        print(f"  problem {problem}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok &= (proc.returncode == 0 and bool(lines) and lines[-1].startswith("{")
               and json.loads(lines[-1])["correct"])
    print(f"all workloads {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one import and set-up, print the seconds (used for setup_s)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
