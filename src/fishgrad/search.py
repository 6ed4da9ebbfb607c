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
from itertools import takewhile
from dataclasses import dataclass, field, replace

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


def _fine_tune(initial_model, plan, train_ds, valid_ds, cfg: IRDConfig) -> None:
    """Fine-tune a fresh copy of the initial model for each planned job,
    (mask, fit ids or None for all training rows, train seed), jobs on the
    same rows as one group, and set its target's score and status: ``ok``,
    or NaN with ``diverged`` (including a non-finite score) or ``undefined``
    (the metric has no value on its predictions), so a search goes on."""
    by_rows: dict = {}
    for job, target in plan:
        by_rows.setdefault(None if job[1] is None else job[1].tobytes(), []).append((job, target))
    for group in by_rows.values():
        fit_ids = group[0][0][1]
        outcomes = tr.train_group(
            [initial_model.clone() for _ in group], [mask for (mask, _, _), _ in group],
            train_ds if fit_ids is None else train_ds.subset(fit_ids), valid_ds,
            [replace(cfg.train, seed=seed) for (_, _, seed), _ in group])
        for (_, target), outcome in zip(group, outcomes):
            target.score = math.nan
            target.status = "undefined" if isinstance(outcome, UndefinedMetric) else "diverged"
            if isinstance(outcome, tr.TrainReport) and math.isfinite(outcome.val_metrics[-1]):
                target.score, target.status = outcome.val_metrics[-1], "ok"


def _keep_samples(scores: list, keep: int, largest: bool) -> np.ndarray:
    """ids of the ``keep`` highest- (or lowest-) scored samples.

    Ordering is by (-score, id), so ties at the median go to the kept-larger
    side by lower id and the top/bottom splits always partition the set.
    """
    arr = sorted(scores, key=lambda s: (-s.score, s.sample_id))
    chosen = arr[:keep] if largest else arr[len(arr) - keep:]
    return np.sort(np.asarray([s.sample_id for s in chosen], dtype=np.int64))


def ird(model, train_ds, valid_ds, x0, initial_sparsity: float | None = None,
        initial_k: int | None = None, cfg: IRDConfig | None = None,
        inverse: bool = False, sample_targets=None, mask_targets=None) -> IRDTrace:
    """Run the halving search from sample set ``x0`` and a top-k mask.

    ``sample_targets`` / ``mask_targets`` override the default ceil-halving
    shrink schedule with explicit successive sizes (used by the grid runner
    to hit preset axis levels). Masks always shrink within the previous mask,
    so the recorded masks are strictly nested, as are the sample subsets.
    No score feeds back into the search, so the trajectory is planned first
    and a bad schedule raises before any fine-tune runs (``_fine_tune``).
    """
    cfg = cfg or IRDConfig()
    trace, plan = _trajectory(model, train_ds, x0, initial_sparsity, initial_k, cfg, inverse,
                              sample_targets, mask_targets)
    _fine_tune(model, plan, train_ds, valid_ds, cfg)
    return trace


def _trajectory(model, train_ds, x0, initial_sparsity, initial_k, cfg: IRDConfig,
                inverse: bool, sample_targets, mask_targets):
    """The search's subsets and masks as a trace with unscored records, and
    each record's fine-tune job paired with the record."""
    if (sample_targets is None) != (mask_targets is None):
        raise ValueError("provide both shrink schedules or neither")
    x0 = np.asarray(x0, dtype=np.int64)
    if len(x0) < 2:
        raise ValueError(f"need at least 2 initial samples, got {len(x0)}")
    mask = top_k_mask(empirical_fisher(model, train_ds, x0), sparsity=initial_sparsity,
                      k=initial_k)
    if mask.size < 2:
        raise ValueError(f"initial mask must select at least 2 parameters, got {mask.size}")
    subset = SampleSubset(x0)
    trace = IRDTrace([], mask, subset)
    sample_targets = list(sample_targets) if sample_targets is not None else None
    mask_targets = list(mask_targets) if mask_targets is not None else None
    iteration = 0
    while len(subset) > 1 and mask.size > 1:
        if sample_targets is not None or mask_targets is not None:
            if not sample_targets or not mask_targets:
                break
            keep_n, keep_k = sample_targets.pop(0), mask_targets.pop(0)
            if not 1 <= keep_n < len(subset) or not 1 <= keep_k < mask.size:
                raise ValueError(f"schedule step ({keep_n}, {keep_k}) does not shrink "
                                 f"({len(subset)}, {mask.size})")
        else:
            keep_n = math.ceil(len(subset) / 2) if not inverse else len(subset) // 2
            keep_k = math.ceil(mask.size / 2) if not inverse else mask.size // 2
        scores = sample_scores(model, train_ds, subset,
                               restrict=mask if cfg.restrict_sample_scores else None)
        kept_ids = _keep_samples(scores, keep_n, largest=not inverse)
        by_id = {s.sample_id: s.score for s in scores}
        subset = SampleSubset(kept_ids, np.asarray([by_id[i] for i in kept_ids]))
        trace.records.append(TraceRecord(iteration, PHASE_SAMPLES, math.nan, mask, subset))

        fisher_l = empirical_fisher(model, train_ds, subset.ids)
        new_sel = top_k_within(fisher_l.values, mask.selected, keep_k,
                               keep_largest=not inverse)
        mask = Mask(new_sel, keep_k / model.num_params, model.num_params,
                    mask.model_hash)
        trace.records.append(TraceRecord(iteration, PHASE_PARAMS, math.nan, mask, subset))
        iteration += 1
    return trace, [((r.mask, r.subset.ids if cfg.train_on_subset else None,
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
    seed's cells and trace are planned before any fine-tune runs, so a bad
    schedule raises first; then each seed's fine-tunes run in groups
    (``training.train_group``) on the calling thread: under the interpreter
    lock a thread pool ran slower than one thread. ``max_workers`` is
    accepted for compatibility and ignored.

    A model is built once per master seed from ``model_spec`` (with a
    derived init seed); pass ``initial_model`` instead to start every seed
    from one fixed parameter snapshot.
    """
    cfg = cfg or IRDConfig()
    if (model_spec is None) == (initial_model is None):
        raise ValueError("provide exactly one of model_spec / initial_model")
    plans = []
    for seed in spec.seeds:
        model = initial_model if initial_model is not None else mz.build(
            replace(model_spec, seed=_derive_seed(model_spec.seed, seed)))
        plans.append((seed, model, *_plan_seed(spec, task, model, cfg, seed)))
    cells, traces = [], []
    for seed, model, plan, trace in plans:
        _fine_tune(model, plan, task.train, task.valid, cfg)
        if trace is None:
            cells += [cell for _, cell in plan]
            continue
        cells.append(plan[0][1])
        cells += [GridCell(spec.sparsity_levels[r.iteration + (r.phase == PHASE_PARAMS)],
                           spec.sample_levels[r.iteration + 1], seed, r.score, r.status)
                  for r in trace.records]
        traces.append({"seed": seed, **trace.to_json()})
    return GridResult(spec, cells, traces)


def _plan_cell(spec, task, model, cfg, seed, ri, ci):
    ids = _draw_ids(len(task.train), spec.sample_levels[ci], _derive_seed(seed, ri, ci, 0))
    mask = top_k_mask(empirical_fisher(model, task.train, ids), sparsity=spec.sparsity_levels[ri])
    return ((mask, ids if cfg.train_on_subset else None, _derive_seed(seed, ri, ci, 1)),
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
    a = baseline.cell_matrix()
    b = candidate.cell_matrix()
    symbols: list[list[str | None]] = []
    ups = downs = ties = 0
    for i in range(a.shape[0]):
        row: list[str | None] = []
        for j in range(a.shape[1]):
            if not (math.isfinite(a[i, j]) and math.isfinite(b[i, j])):
                row.append(None)
                continue
            av, bv = round(a[i, j], 4), round(b[i, j], 4)
            if bv > av:
                row.append("up")
                ups += 1
            elif bv < av:
                row.append("down")
                downs += 1
            else:
                row.append("tie")
                ties += 1
        symbols.append(row)
    return CellComparison(a_spec.sparsity_levels, a_spec.sample_levels,
                          symbols, ups, downs, ties)


def save_grid(result: GridResult, path, manifest: dict | None = None) -> None:
    payload = {"result": result.to_json()}
    if manifest is not None:
        payload = {"manifest": manifest, **payload}
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def load_grid(path) -> GridResult:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return GridResult.from_json(d.get("result", d))
