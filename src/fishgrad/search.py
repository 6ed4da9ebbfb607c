"""Alternating sample/parameter halving search over sparse-mask fine-tuning.

Starting from an initial sample set and a top-k parameter mask, each loop
iteration (while both sets still have more than one element) first keeps the
half of the samples with the largest squared-gradient scores, scores that
configuration, then keeps the half of the masked parameters with the largest
diagonal scores recomputed on the surviving samples, and scores again. Every
score is the last validation reading, on ``TrainConfig.metric``, of a masked
fine-tune of a fresh copy of the initial model, so recorded scores are
mutually comparable. No score feeds back into the search: a run plans its
whole trajectory first, then runs the fine-tunes in groups
(``training.train_group``). The inverse variant keeps the below-median
halves at both decision points instead and is used as a sanity control: it
should not beat the forward search.

The grid runner replays the same trajectory onto a (samples x sparsity)
staircase of cells and can also fill those cells with the random-sample
baseline for comparison.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, groupby, takewhile

import numpy as np

from . import models as mz
from . import training as tr
from .fileio import write_atomic
from .fisher import (Mask, SampleSubset, empirical_fisher, mask_size,
                     sample_scores, top_k_mask, top_k_within)
from .metrics import UndefinedMetric

PHASE_SAMPLES = "after_sample_halving"
PHASE_PARAMS = "after_param_halving"
MODES = ("fish_random", "ird", "ird_inverse")


@dataclass
class IRDConfig:
    """Knobs for one search run.

    ``train_on_subset`` switches Score() to fine-tune on the surviving sample
    subset instead of the full training split (the default treats the subset
    purely as the mask-derivation set). ``restrict_sample_scores`` sums each
    sample's squared gradient only over the current mask when ranking
    samples.
    """

    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    restrict_sample_scores: bool = False
    train_on_subset: bool = False
    seed: int = 0


@dataclass
class TraceRecord:
    iteration: int
    phase: str
    score: float
    mask: Mask
    subset: SampleSubset
    status: str = "ok"  # as GridCell.status; the JSON's null score covers both failures

    def to_json(self) -> dict:
        return {"iteration": self.iteration, "phase": self.phase,
                "score": _json_score(self.score),
                "mask_size": self.mask.size,
                "mask_selected": self.mask.selected.tolist(),
                "subset_size": len(self.subset),
                "subset_ids": self.subset.ids.tolist()}


@dataclass
class IRDTrace:
    """Score/mask/subset snapshots in recording order (two per iteration)."""

    records: list[TraceRecord]
    initial_mask: Mask
    initial_subset: SampleSubset

    def __len__(self) -> int:
        return len(self.records)

    def sample_sizes(self) -> list[int]:
        sizes = [len(self.initial_subset)]
        sizes += [len(r.subset) for r in self.records if r.phase == PHASE_SAMPLES]
        return sizes

    def mask_sizes(self) -> list[int]:
        sizes = [self.initial_mask.size]
        sizes += [r.mask.size for r in self.records if r.phase == PHASE_PARAMS]
        return sizes

    def best_score(self) -> float:
        finite = [r.score for r in self.records if math.isfinite(r.score)]
        return max(finite) if finite else float("nan")

    def to_json(self) -> dict:
        return {"initial_mask_size": self.initial_mask.size,
                "initial_subset_ids": self.initial_subset.ids.tolist(),
                "records": [r.to_json() for r in self.records]}


def _derive_seed(*keys) -> int:
    return int(np.random.SeedSequence(tuple(int(k) for k in keys)).generate_state(1)[0])


def _json_score(score: float):
    # NaN sentinels become null so result files stay strict JSON.
    return float(score) if math.isfinite(score) else None


def _score_from_json(value) -> float:
    return float("nan") if value is None else float(value)


def _fine_tune(plan, train_ds, valid_ds, cfg: IRDConfig) -> list[tuple[float, str]]:
    """Fine-tune a fresh copy of the model of each planned job, (model, (mask,
    fit ids or None for all rows, train seed), target), a group at a time; set
    and return each target's score and status: ``ok``, or NaN with ``diverged``
    (a non-finite score too) or ``undefined`` (no metric on its predictions)."""
    for group in _groups(plan):
        model, (_, fit_ids, _), _ = group[0]
        outcomes = tr.train_group(
            [model.clone() for _ in group], [mask for _, (mask, _, _), _ in group],
            train_ds if fit_ids is None else train_ds.subset(fit_ids), valid_ds,
            [replace(cfg.train, seed=seed) for _, (_, _, seed), _ in group])
        for (_, _, target), outcome in zip(group, outcomes):
            target.score = math.nan
            target.status = "undefined" if isinstance(outcome, UndefinedMetric) else "diverged"
            if isinstance(outcome, tr.TrainReport) and math.isfinite(outcome.val_metrics[-1]):
                target.score, target.status = outcome.val_metrics[-1], "ok"
    return [(target.score, target.status) for _, _, target in plan]


def _groups(plan) -> list[list]:
    """Runs of planned jobs of one model on the same rows: one group each."""
    return [list(run) for _, run in groupby(plan, key=lambda job: (
        id(job[0]), None if job[1][1] is None else job[1][1].tobytes()))]


def ird(model, train_ds, valid_ds, x0, initial_sparsity: float | None = None,
        initial_k: int | None = None, cfg: IRDConfig | None = None,
        inverse: bool = False, sample_targets=None, mask_targets=None) -> IRDTrace:
    """Run the halving search from sample set ``x0`` and a top-k mask.

    ``sample_targets`` / ``mask_targets`` override the default shrink
    schedule, which halves both sets (ceil halves; floor halves for the
    inverse search), with explicit successive sizes (used by the grid runner
    to hit preset axis levels). The search stops once either set has one
    element. Masks always shrink within the previous mask, so the recorded
    masks are strictly nested, as are the sample subsets. No score feeds
    back into the search, so the trajectory is planned first and a bad
    schedule raises before any fine-tune runs (``_fine_tune``).
    """
    cfg = cfg or IRDConfig()
    trace, plan = _trajectory(model, train_ds, x0, initial_sparsity, initial_k, cfg, inverse,
                              sample_targets, mask_targets)
    _fine_tune(plan, train_ds, valid_ds, cfg)
    return trace


def _halvings(size: int, inverse: bool) -> list[int]:
    """Successive halves of ``size`` down to one element."""
    sizes = []
    while size > 1:
        size = size // 2 if inverse else math.ceil(size / 2)
        sizes.append(size)
    return sizes


def _trajectory(model, train_ds, x0, initial_sparsity, initial_k, cfg: IRDConfig,
                inverse: bool, sample_targets, mask_targets):
    """The search's subsets and masks as a trace with unscored records, and
    each record's fine-tune job paired with the record.

    The schedule never depends on a score, so the default one is worked out
    before the search starts. Both halving steps are one operation: score
    the current set, then keep the scheduled number with ``top_k_within``.
    """
    if (sample_targets is None) != (mask_targets is None):
        raise ValueError("provide both shrink schedules or neither")
    x0 = np.asarray(x0, dtype=np.int64)
    if len(x0) < 2:
        raise ValueError(f"need at least 2 initial samples, got {len(x0)}")
    mask = top_k_mask(empirical_fisher(model, train_ds, x0), sparsity=initial_sparsity,
                      k=initial_k)
    if mask.size < 2:
        raise ValueError(f"initial mask must select at least 2 parameters, got {mask.size}")
    if sample_targets is None:
        sample_targets, mask_targets = _halvings(len(x0), inverse), _halvings(mask.size, inverse)
    subset = SampleSubset(x0)
    trace = IRDTrace([], mask, subset)
    for iteration, (keep_n, keep_k) in enumerate(zip(sample_targets, mask_targets)):
        if len(subset) == 1 or mask.size == 1:
            break
        if not 1 <= keep_n < len(subset) or not 1 <= keep_k < mask.size:
            raise ValueError(f"schedule step ({keep_n}, {keep_k}) does not shrink "
                             f"({len(subset)}, {mask.size})")
        # Scores indexed by row id, so ties go to the lower id whatever x0's order.
        by_id = np.zeros(len(train_ds))
        by_id[subset.ids] = sample_scores(model, train_ds, subset,
                                          restrict=mask if cfg.restrict_sample_scores else None)
        subset = SampleSubset(top_k_within(by_id, np.sort(subset.ids), keep_n,
                                           keep_largest=not inverse))
        trace.records.append(TraceRecord(iteration, PHASE_SAMPLES, math.nan, mask, subset))

        fisher_l = empirical_fisher(model, train_ds, subset.ids)
        new_sel = top_k_within(fisher_l.values, mask.selected, keep_k,
                               keep_largest=not inverse)
        mask = Mask(new_sel, keep_k / model.num_params, model.num_params,
                    mask.model_hash)
        trace.records.append(TraceRecord(iteration, PHASE_PARAMS, math.nan, mask, subset))
    return trace, [(model, (r.mask, r.subset.ids if cfg.train_on_subset else None,
                            _derive_seed(cfg.seed, r.iteration, r.phase == PHASE_PARAMS)), r)
                   for r in trace.records]


def ird_inverse(model, train_ds, valid_ds, x0, initial_sparsity: float | None = None,
                initial_k: int | None = None, cfg: IRDConfig | None = None,
                sample_targets=None, mask_targets=None) -> IRDTrace:
    """Control run keeping the below-median halves at both decision points."""
    return ird(model, train_ds, valid_ds, x0, initial_sparsity, initial_k,
               cfg, inverse=True, sample_targets=sample_targets,
               mask_targets=mask_targets)


# ---------------------------------------------------------------------------
# Grid runner: staircase of (sparsity, samples) cells.
# ---------------------------------------------------------------------------


@dataclass
class GridSpec:
    """Descending sparsity/sample axes, an evaluation mode, and seeds."""

    sparsity_levels: tuple[float, ...] = (0.025, 0.005, 0.001, 0.0002)
    sample_levels: tuple[int, ...] = (128, 32, 16, 1)
    mode: str = "fish_random"
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        self.sparsity_levels = tuple(float(s) for s in self.sparsity_levels)
        self.sample_levels = tuple(int(n) for n in self.sample_levels)
        self.seeds = tuple(int(s) for s in self.seeds)
        for name, levels in (("sparsity", self.sparsity_levels),
                             ("sample", self.sample_levels)):
            if not levels:
                raise ValueError(f"{name} levels must be nonempty")
            if any(b >= a for a, b in zip(levels, levels[1:])):
                raise ValueError(f"{name} levels must be strictly decreasing: {levels}")
        if len(self.sparsity_levels) != len(self.sample_levels):
            raise ValueError("staircase needs axes of equal length")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_json(self) -> dict:
        return {"sparsity_levels": list(self.sparsity_levels),
                "sample_levels": list(self.sample_levels),
                "mode": self.mode, "seeds": list(self.seeds)}

    @staticmethod
    def from_json(d: dict) -> "GridSpec":
        return GridSpec(tuple(d["sparsity_levels"]), tuple(d["sample_levels"]),
                        d["mode"], tuple(d["seeds"]))


def staircase_cells(n_levels: int) -> list[tuple[int, int]]:
    """(sparsity index, sample index) pairs along the shrink trajectory.

    Index 0 is the largest level on both axes; the path starts at (0, 0) and
    alternates sample then sparsity steps, visiting 2*(n-1)+1 cells.
    """
    cells = [(0, 0)]
    for i in range(n_levels - 1):
        cells.append((i, i + 1))
        cells.append((i + 1, i + 1))
    return cells


@dataclass
class GridCell:
    sparsity: float
    n_samples: int
    seed: int
    score: float
    status: str = "ok"  # ok | diverged | undefined

    def to_json(self) -> dict:
        return {"sparsity": self.sparsity, "n_samples": self.n_samples,
                "seed": self.seed, "score": _json_score(self.score),
                "status": self.status}


@dataclass
class GridResult:
    spec: GridSpec
    cells: list[GridCell]
    traces: list[dict] = field(default_factory=list)

    def cell_matrix(self) -> np.ndarray:
        """Mean ok-score per (sparsity, samples) cell; NaN where unexplored."""
        rows, cols = len(self.spec.sparsity_levels), len(self.spec.sample_levels)
        sums = np.zeros((rows, cols))
        counts = np.zeros((rows, cols))
        ri = {s: i for i, s in enumerate(self.spec.sparsity_levels)}
        ci = {n: i for i, n in enumerate(self.spec.sample_levels)}
        for cell in self.cells:
            if cell.status == "ok" and math.isfinite(cell.score):
                i, j = ri[cell.sparsity], ci[cell.n_samples]
                sums[i, j] += cell.score
                counts[i, j] += 1
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    def best_score(self) -> float:
        matrix = self.cell_matrix()
        finite = matrix[np.isfinite(matrix)]
        return float(finite.max()) if len(finite) else float("nan")

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(),
                "cells": [c.to_json() for c in self.cells],
                "traces": self.traces}

    @staticmethod
    def from_json(d: dict) -> "GridResult":
        spec = GridSpec.from_json(d["spec"])
        cells = [GridCell(c["sparsity"], c["n_samples"], c["seed"],
                          _score_from_json(c["score"]), c.get("status", "ok"))
                 for c in d["cells"]]
        return GridResult(spec, cells, d.get("traces", []))

    @staticmethod
    def from_matrix(sparsity_levels, sample_levels, matrix,
                    mode: str = "fish_random") -> "GridResult":
        """Wrap a transcribed score matrix (NaN/None = unexplored cell)."""
        spec = GridSpec(tuple(sparsity_levels), tuple(sample_levels), mode, (0,))
        cells = []
        for i, s in enumerate(spec.sparsity_levels):
            for j, n in enumerate(spec.sample_levels):
                v = matrix[i][j]
                if v is not None and math.isfinite(v):
                    cells.append(GridCell(s, n, 0, float(v)))
        return GridResult(spec, cells)


@dataclass
class Task:
    """The training and validation splits a grid fine-tunes and scores on."""

    train: "Dataset"
    valid: "Dataset"


def _draw_ids(n_total: int, n_draw: int, seed: int) -> np.ndarray:
    if n_draw > n_total:
        raise ValueError(f"cannot draw {n_draw} samples from {n_total}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=n_draw, replace=False))


def run_grid(spec: GridSpec, task: Task, model_spec: mz.ModelSpec | None = None,
             cfg: IRDConfig | None = None, max_workers: int = 1,
             initial_model=None) -> GridResult:
    """Evaluate the staircase cells for every master seed in ``spec``.

    fish_random fills each cell independently: scores from ``n`` freshly
    drawn random samples, a top-k mask at the cell's sparsity, one masked
    fine-tune. ird / ird_inverse evaluate the initial cell identically (same
    sample draw, same training seed) and then map the trace records onto the
    remaining cells, so the two modes are comparable cell for cell. A
    cell's score is its fine-tune's last validation reading on
    ``cfg.train.metric``. Cell RNG derives from (master seed, cell
    coordinates), making results independent of execution order. Every
    seed's cells and trace are planned, and all scoring done, here before any
    fine-tune runs, so a bad schedule raises first; the fine-tunes then run
    in up to ``max_workers`` processes, with the same results for any count.

    A model is built once per master seed from ``model_spec`` (with a
    derived init seed); pass ``initial_model`` instead to start every seed
    from one fixed parameter snapshot.
    """
    cfg = cfg or IRDConfig()
    if (model_spec is None) == (initial_model is None):
        raise ValueError("provide exactly one of model_spec / initial_model")
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    plans = []
    for seed in spec.seeds:
        model = initial_model if initial_model is not None else mz.build(
            replace(model_spec, seed=_derive_seed(model_spec.seed, seed)))
        plans.append((seed, *_plan_seed(spec, task, model, cfg, seed)))
    _fine_tune_chunks([job for _, plan, _ in plans for job in plan], task, cfg, max_workers)
    cells, traces = [], []
    for seed, plan, trace in plans:
        if trace is None:
            cells += [cell for *_, cell in plan]
            continue
        cells.append(plan[0][-1])
        cells += [GridCell(spec.sparsity_levels[r.iteration + (r.phase == PHASE_PARAMS)],
                           spec.sample_levels[r.iteration + 1], seed, r.score, r.status)
                  for r in trace.records]
        traces.append({"seed": seed, **trace.to_json()})
    return GridResult(spec, cells, traces)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _fine_tune_chunks(plan, task: Task, cfg: IRDConfig, max_workers: int) -> None:
    """Run the planned jobs (see ``_fine_tune``) in up to one contiguous chunk
    of whole groups per worker and usable core, the first here and each other
    in a forked child (``_fork``), and set each target's score and status.
    On Linux before Python 3.12, which warns on a fork with threads (BLAS's)."""
    groups = _groups(plan)
    forks = hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12)
    workers = max(1, min(max_workers, _usable_cores(), len(groups))) if forks else 1
    starts = list(accumulate([0] + [len(group) for group in groups]))
    cuts = sorted({min(starts, key=lambda s: abs(workers * s - i * len(plan)))
                   for i in range(workers + 1)})  # the group starts nearest even cuts
    chunks = [plan[a:b] for a, b in zip(cuts, cuts[1:])] or [[]]
    children, results = [], []
    try:
        for chunk in chunks[1:]:
            children.append(_fork(partial(_fine_tune, chunk, task.train, task.valid, cfg)))
        results.append(_fine_tune(chunks[0], task.train, task.valid, cfg))
        for pid, read_fd in children:
            data = b"".join(iter(partial(os.read, read_fd, 1 << 16), b""))
            value = pickle.loads(data) if data else RuntimeError(
                f"fine-tune worker {pid} exited without a result")
            if isinstance(value, BaseException):
                raise value
            results.append(value)
    finally:
        for pid, read_fd in children:
            if len(results) < len(chunks):  # a chunk failed: stop the rest
                os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
    for (_, _, target), (score, status) in zip(plan, sum(results, [])):
        target.score, target.status = score, status


def _fork(work) -> tuple[int, int]:
    """The pid and pipe read end of a forked child that runs ``work``, pipes
    back its result or exception, pickled, and ends in ``os._exit``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        try:
            payload = pickle.dumps(work())
        except BaseException as exc:  # noqa: BLE001 - the caller raises it again
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)
            except Exception:  # noqa: BLE001 - it does not load back
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _plan_cell(spec, task, model, cfg, seed, ri, ci):
    ids = _draw_ids(len(task.train), spec.sample_levels[ci], _derive_seed(seed, ri, ci, 0))
    mask = top_k_mask(empirical_fisher(model, task.train, ids), sparsity=spec.sparsity_levels[ri])
    return (model, (mask, ids if cfg.train_on_subset else None, _derive_seed(seed, ri, ci, 1)),
            GridCell(spec.sparsity_levels[ri], spec.sample_levels[ci], seed, math.nan))


def _plan_seed(spec, task, model, cfg, seed):
    """A master seed's jobs, each with the cell or record it scores, and trace."""
    if spec.mode == "fish_random":
        return [_plan_cell(spec, task, model, cfg, seed, ri, ci)
                for ri, ci in staircase_cells(len(spec.sparsity_levels))], None
    run_cfg = replace(cfg, seed=_derive_seed(seed, 99))
    x0 = _draw_ids(len(task.train), spec.sample_levels[0], _derive_seed(seed, 0, 0, 0))
    mask_sizes = [mask_size(s, model.num_params) for s in spec.sparsity_levels]
    # Degenerate schedules (a level that does not shrink the mask) stop the
    # trace early rather than erroring; the remaining cells stay unexplored.
    levels = list(zip(spec.sample_levels, mask_sizes))
    steps = [nxt for _, nxt in takewhile(lambda s: all(1 <= new < old for old, new in zip(*s)),
                                         zip(levels, levels[1:]))]
    initial = _plan_cell(spec, task, model, cfg, seed, 0, 0)
    trace, plan = _trajectory(model, task.train, x0, None, mask_sizes[0], run_cfg,
                              spec.mode == "ird_inverse", [n for n, _ in steps],
                              [k for _, k in steps])
    return [initial, *plan], trace


# ---------------------------------------------------------------------------
# Grid comparison: per-cell up/down/tie at 4-decimal resolution.
# ---------------------------------------------------------------------------


@dataclass
class CellComparison:
    sparsity_levels: tuple[float, ...]
    sample_levels: tuple[int, ...]
    symbols: list[list[str | None]]  # up | down | tie | None
    ups: int
    downs: int
    ties: int

    def to_json(self) -> dict:
        return {"sparsity_levels": list(self.sparsity_levels),
                "sample_levels": list(self.sample_levels),
                "symbols": self.symbols,
                "ups": self.ups, "downs": self.downs, "ties": self.ties}


def compare_grids(baseline: GridResult, candidate: GridResult) -> CellComparison:
    """Per-cell direction of candidate vs baseline on identical axes.

    Scores are rounded to 4 decimals before comparing; cells explored in
    only one grid count as unexplored.
    """
    a_spec, b_spec = baseline.spec, candidate.spec
    if (a_spec.sparsity_levels != b_spec.sparsity_levels
            or a_spec.sample_levels != b_spec.sample_levels):
        raise ValueError("grid axes differ; nothing cell-comparable")
    def direction(av, bv):
        if not (math.isfinite(av) and math.isfinite(bv)):
            return None
        return "up" if bv > av else "down" if bv < av else "tie"

    a, b = baseline.cell_matrix().round(4), candidate.cell_matrix().round(4)
    symbols = [[direction(av, bv) for av, bv in zip(ra, rb)] for ra, rb in zip(a, b)]
    flat = [symbol for row in symbols for symbol in row]
    return CellComparison(a_spec.sparsity_levels, a_spec.sample_levels, symbols,
                          flat.count("up"), flat.count("down"), flat.count("tie"))


def save_grid(result: GridResult, path, manifest: dict | None = None) -> None:
    payload = {"result": result.to_json()}
    if manifest is not None:
        payload = {"manifest": manifest, **payload}
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def load_grid(path) -> GridResult:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return GridResult.from_json(d.get("result", d))
