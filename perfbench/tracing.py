"""Per-layer tracing by wrapping fishgrad's public functions in spans.

The tracer replaces module attributes (and a few model methods) with
wrappers that time each call. Every thread keeps its own span stack, so a
span's self time is its duration minus the durations of the child spans that
ran on the same thread; spans that start in a grid worker thread are roots of
that thread's stack. Counters that a span cannot see (rows scored, epochs,
cells) are taken from the wrapped calls' arguments and return values.

Only entry points are wrapped. The tape's primitive ops run thousands of
times per training step, and wrapping them would make the traced run measure
the wrapper rather than the program.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Module -> public functions wrapped as spans named "<module>.<function>".
FUNCTIONS = {
    "autodiff": ("log_prob_gradient", "loss_gradient", "per_sample_gradients"),
    "models": ("build", "save_checkpoint", "load_checkpoint"),
    "fisher": ("empirical_fisher", "expectation_fisher", "sample_scores",
               "top_k_mask", "top_k_within", "random_mask"),
    "training": ("train_masked", "adam_step", "sgd_step", "early_stop_check"),
    "metrics": ("score",),
    "search": ("ird", "ird_inverse", "run_grid", "compare_grids",
               "save_grid", "load_grid"),
    "data": ("generate", "load", "save", "split", "train_valid_split"),
    "cli": ("main",),
    "report": ("render_heatmap", "comparison_csv"),
}
# Model methods wrapped as spans named "models.<method>" on every class that
# defines them.
METHODS = ("predictions", "log_probs", "clone")

SCORERS = ("fisher.empirical_fisher", "fisher.expectation_fisher",
           "fisher.sample_scores")
OPTIMIZERS = ("training.adam_step", "training.sgd_step")


class Tracer:
    """Span and counter store for one traced run.

    Counts accumulate across installs, so traced calls can be interleaved
    with untraced ones.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._grids_active = 0
        self._op_pairs: set = set()
        self.grid_workers: set[int] = set()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the listed functions wherever fishgrad's modules bind them.

        A function imported by name into another module (``search`` imports
        ``empirical_fisher`` and friends from ``fisher``) is bound there too;
        patching only the defining module would miss those calls.
        """
        modules = {name: getattr(package, name) for name in FUNCTIONS}
        wrappers = {}
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                wrappers[original] = self._wrap(f"{mod_name}.{fn_name}", original)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        model_base = modules["models"].Model
        for value in list(vars(modules["models"]).values()):
            if inspect.isclass(value) and issubclass(value, model_base):
                for meth in METHODS:
                    if meth in vars(value):
                        self._patch(value, meth,
                                    self._wrap(f"models.{meth}", vars(value)[meth]))

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def paused(self):
        """Run output checks without counting their calls."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def end_op(self) -> None:
        """Distinct (snapshot, row) pairs are counted per op."""
        with self._lock:
            self.counts["fisher.distinct_pairs"] += len(self._op_pairs)
            self._op_pairs = set()

    def spans(self) -> dict[str, list]:
        """Every span seen, as name -> [calls, self seconds]."""
        return {name: [self.calls[name], round(self.self_s[name], 6)]
                for name in sorted(self.calls) if self.calls[name]}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        is_grid = name == "search.run_grid"
        tracer = self

        def span(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            if is_grid:
                with tracer._lock:
                    tracer._grids_active += 1
                cpu0 = time.process_time()
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += duration
                    tracer.self_s[name] += duration - children
                    if is_grid:
                        tracer._grids_active -= 1
                        tracer.counts["search.run_grid.cpu_s"] += time.process_time() - cpu0
                if observe:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(tracer, bound.arguments, result, error, duration)

        span.__name__ = fn.__name__
        span.__doc__ = fn.__doc__
        return span


def _subset_ids(dataset, subset) -> list[int]:
    if subset is None:
        return list(range(len(dataset)))
    ids = getattr(subset, "ids", subset)
    return [int(i) for i in ids]


def _observe_scoring(tracer: Tracer, args, result, error, duration) -> None:
    dataset = args["dataset"]
    ids = _subset_ids(dataset, args["subset"])
    snapshot = args["model"].content_hash()
    with tracer._lock:
        tracer.counts["fisher.rows_scored"] += len(ids)
        tracer._op_pairs.update((snapshot, i) for i in ids)


def _observe_training(tracer: Tracer, args, result, error, duration) -> None:
    with tracer._lock:
        if tracer._grids_active:
            tracer.counts["training.train_in_grid_s"] += duration
        if error is not None:
            if type(error).__name__ == "TrainingDiverged":
                tracer.counts["training.diverged"] += 1
            return
        tracer.counts["training.epochs_run"] += result.epochs_run
        tracer.counts["training.rows"] += result.epochs_run * len(args["train_ds"])


def _observe_grid(tracer: Tracer, args, result, error, duration) -> None:
    with tracer._lock:
        tracer.counts["search.run_grid.wall_s"] += duration
        tracer.grid_workers.add(args["max_workers"])
        tracer.counts["search.run_grid.worker_s"] += duration * max(1, args["max_workers"])
        if result is not None:
            tracer.counts["search.cells"] += len(result.cells)
            tracer.counts["search.cells_diverged"] += sum(
                c.status != "ok" for c in result.cells)


_OBSERVERS = {name: _observe_scoring for name in SCORERS}
_OBSERVERS["training.train_masked"] = _observe_training
_OBSERVERS["search.run_grid"] = _observe_grid


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def train_span_per_wall(tracer: Tracer) -> float:
    """Summed train_masked span time inside run_grid over run_grid wall time."""
    return _ratio(tracer.counts["training.train_in_grid_s"],
                  tracer.counts["search.run_grid.wall_s"])


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    c, s, n = tracer.counts, tracer.self_s, tracer.calls
    out: dict[str, tuple[float, str]] = {}
    for name in ("autodiff.log_prob_gradient", "autodiff.loss_gradient"):
        out[f"{name}.calls"] = (n[name], "count")
        out[f"{name}.self_s"] = (s[name], "s")
        out[f"{name}.us_per_call"] = (1e6 * _ratio(s[name], n[name]), "us")
    for name in SCORERS + ("training.train_masked", "metrics.score",
                           "models.predictions", "search.ird"):
        out[f"{name}.calls"] = (n[name], "count")
        out[f"{name}.self_s"] = (s[name], "s")
    out["fisher.rows_scored"] = (c["fisher.rows_scored"], "count")
    out["fisher.grad_recompute_ratio"] = (
        _ratio(n["autodiff.log_prob_gradient"], c["fisher.distinct_pairs"]), "ratio")
    steps = sum(n[name] for name in OPTIMIZERS)
    out["training.steps"] = (steps, "count")
    out["training.epochs_run"] = (c["training.epochs_run"], "count")
    out["training.rows_per_s"] = (
        _ratio(c["training.rows"], tracer.total_s["training.train_masked"]), "rows/s")
    out["training.optimizer_s"] = (sum(s[name] for name in OPTIMIZERS), "s")
    out["training.diverged"] = (c["training.diverged"], "count")
    out["training.diverged_frac"] = (
        _ratio(c["training.diverged"], n["training.train_masked"]), "ratio")
    wall, cpu = c["search.run_grid.wall_s"], c["search.run_grid.cpu_s"]
    out["search.run_grid.wall_s"] = (wall, "s")
    out["search.run_grid.cpu_s"] = (cpu, "s")
    # CPU time over wall x workers. Summed span time would overstate it: spans
    # in threads that wait on the interpreter lock still count as busy (see
    # train_span_per_wall).
    out["search.run_grid.parallel_eff"] = (_ratio(cpu, c["search.run_grid.worker_s"]), "ratio")
    out["search.cells"] = (c["search.cells"], "count")
    out["search.cells_diverged"] = (c["search.cells_diverged"], "count")
    out["search.cells_diverged_frac"] = (
        _ratio(c["search.cells_diverged"], c["search.cells"]), "ratio")
    out["cli.main.self_s"] = (s["cli.main"], "s")
    out["cli.bytes_written"] = (c["cli.bytes_written"], "bytes")
    for name in ("report.render_heatmap", "report.comparison_csv", "data.generate",
                 "data.load", "data.train_valid_split", "models.build"):
        out[f"{name}.self_s"] = (s[name], "s")
    out["models.clone.calls"] = (n["models.clone"], "count")
    return out
