"""Alternating sample/parameter halving search over sparse-mask fine-tuning.

Starting from an initial sample set and a top-k parameter mask, each loop
iteration (while both sets still have more than one element) first keeps the
half of the samples with the largest squared-gradient scores, scores that
configuration, then keeps the half of the masked parameters with the largest
diagonal scores recomputed on the surviving samples, and scores again. Every
score is the last validation reading, on ``TrainConfig.metric``, of a masked
fine-tune that starts from the initial model, so recorded scores are
mutually comparable. No score feeds back into the search: a run plans its
whole trajectory first, then runs its fine-tunes in one
``training.train_group`` call. The inverse variant keeps the below-median
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

import numpy as np

from . import models as mz
from . import training as tr
from ._check import integer, real
from .fileio import read_result, write_atomic
from .fisher import (Mask, SampleSubset, empirical_fisher, mask_size,
                     sample_scores, top_k_mask, top_k_within)
from .metrics import UndefinedMetric

PHASE_SAMPLES = "after_sample_halving"
PHASE_PARAMS = "after_param_halving"
MODES = ("fish_random", "ird", "ird_inverse")


@dataclass
class IRDConfig:
    """Knobs for one search run: the fine-tune's ``train`` config and the
    master ``seed`` its training seeds derive from. The sample subsets only
    derive masks; every fine-tune trains on the full training split, and
    samples rank by their full squared-gradient norm."""

    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
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
    """Fine-tune the model of each planned job, (model, mask, train seed), on
    the full training split, in one ``training.train_group`` call: each
    job's (score, status) in plan order, ``ok``, or NaN with ``diverged`` (a
    non-finite score too) or ``undefined`` (no metric on its predictions).
    The planned models are passed themselves, not cloned: ``train_group``
    only reads a model that several jobs share, as every ``ird`` plan's
    model is, and writes only a model that one job holds, a one-cell seed's
    model that ``run_grid`` built for it."""
    outcomes = tr.train_group(
        [model for model, _, _ in plan], [mask for _, mask, _ in plan],
        train_ds, valid_ds, [replace(cfg.train, seed=seed) for _, _, seed in plan])
    return [(o.val_metrics[-1], "ok")
            if isinstance(o, tr.TrainReport) and math.isfinite(o.val_metrics[-1])
            else (math.nan, "undefined" if isinstance(o, UndefinedMetric) else "diverged")
            for o in outcomes]


def ird(model, train_ds, valid_ds, x0, initial_sparsity: float | None = None,
        initial_k: int | None = None, cfg: IRDConfig | None = None,
        inverse: bool = False) -> IRDTrace:
    """Run the halving search from sample set ``x0`` and a top-k mask.

    Each iteration halves the sample set, then the mask (ceil halves; floor
    halves for the inverse search), until either set has one element. Masks
    always shrink within the previous mask, so the recorded masks are
    strictly nested, as are the sample subsets. No score feeds back into the
    search, so the trajectory is planned first and a bad input raises before
    any fine-tune runs (``_fine_tune``); record i takes job i's score.
    """
    cfg = cfg or IRDConfig()
    trace, plan = _trajectory(model, train_ds, x0, initial_sparsity, initial_k, cfg.seed,
                              inverse)
    for record, (score, status) in zip(trace.records, _fine_tune(plan, train_ds, valid_ds, cfg)):
        record.score, record.status = score, status
    return trace


def _halvings(size: int, inverse: bool) -> list[int]:
    """Successive halves of ``size`` down to one element."""
    sizes = []
    while size > 1:
        size = size // 2 if inverse else math.ceil(size / 2)
        sizes.append(size)
    return sizes


def _trajectory(model, train_ds, x0, initial_sparsity, initial_k, seed: int,
                inverse: bool, steps=None):
    """The search's subsets and masks as a trace with unscored records, and
    each record's fine-tune job, its training seed derived from ``seed``.

    ``steps`` are the (samples, mask size) pairs to keep (the grid's
    staircase levels), or by default the halvings of both sets, which end at
    one element; the search stops at the first step that does not shrink
    both sets (a degenerate grid level). The schedule never depends on a
    score, so it is known before the search starts. Both halving steps are
    one operation: score the current set, then keep the scheduled number
    with ``top_k_within``.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    if len(x0) < 2:
        raise ValueError(f"need at least 2 initial samples, got {len(x0)}")
    mask = top_k_mask(empirical_fisher(model, train_ds, x0), sparsity=initial_sparsity,
                      k=initial_k)
    if mask.size < 2:
        raise ValueError(f"initial mask must select at least 2 parameters, got {mask.size}")
    if steps is None:
        steps = zip(_halvings(len(x0), inverse), _halvings(mask.size, inverse))
    subset = SampleSubset(x0)
    trace = IRDTrace([], mask, subset)
    for iteration, (keep_n, keep_k) in enumerate(steps):
        if keep_n >= len(subset) or keep_k >= mask.size:
            break  # a degenerate grid level: the later cells stay unexplored
        # Scores indexed by row id, so ties go to the lower id whatever x0's order.
        by_id = np.zeros(len(train_ds))
        by_id[subset.ids] = sample_scores(model, train_ds, subset)
        subset = SampleSubset(top_k_within(by_id, np.sort(subset.ids), keep_n,
                                           keep_largest=not inverse))
        trace.records.append(TraceRecord(iteration, PHASE_SAMPLES, math.nan, mask, subset))

        fisher_l = empirical_fisher(model, train_ds, subset.ids)
        new_sel = top_k_within(fisher_l.values, mask.selected, keep_k,
                               keep_largest=not inverse)
        mask = Mask(new_sel, keep_k / model.num_params, model.num_params,
                    mask.model_hash)
        trace.records.append(TraceRecord(iteration, PHASE_PARAMS, math.nan, mask, subset))
    return trace, [(model, r.mask, _derive_seed(seed, r.iteration, r.phase == PHASE_PARAMS))
                   for r in trace.records]


def ird_inverse(model, train_ds, valid_ds, x0, initial_sparsity: float | None = None,
                initial_k: int | None = None, cfg: IRDConfig | None = None) -> IRDTrace:
    """Control run keeping the below-median halves at both decision points."""
    return ird(model, train_ds, valid_ds, x0, initial_sparsity, initial_k, cfg, inverse=True)


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
        self.sparsity_levels = tuple(float(real("sparsity levels", s, "(0, 1]"))
                                     for s in self.sparsity_levels)
        self.sample_levels = tuple(int(integer("sample levels", n, 1)) for n in self.sample_levels)
        self.seeds = tuple(int(integer("seeds", s, 0)) for s in self.seeds)
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


@dataclass
class Task:
    """The training and validation splits a grid fine-tunes and scores on."""

    train: "Dataset"
    valid: "Dataset"


def _draw_ids(n_total: int, n_draw: int, seed: int) -> np.ndarray:
    if integer("samples", n_draw, 1) > n_total:
        raise ValueError(f"cannot draw {n_draw} samples from {n_total}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=n_draw, replace=False))


def run_grid(spec: GridSpec, task: Task, model_spec: mz.ModelSpec,
             cfg: IRDConfig | None = None, max_workers: int = 1) -> GridResult:
    """Evaluate the staircase cells for every master seed in ``spec``.

    fish_random fills each cell independently: scores from ``n`` freshly
    drawn random samples, a top-k mask at the cell's sparsity, one masked
    fine-tune. ird / ird_inverse evaluate the initial cell identically (same
    sample draw, same training seed), then the trace records, so the two
    modes are comparable cell for cell. A seed's i-th job scores
    ``staircase_cells``' i-th cell, and its trace record i - 1, on
    ``cfg.train.metric``. Cell RNG derives from (master seed, cell
    coordinates), making results independent of execution order. Every
    seed's cells and trace are planned, and all scoring done, here before any
    fine-tune runs, so a bad schedule raises first; the fine-tunes then run
    in up to ``max_workers`` processes, each given whole seeds, with the same
    results for any count.
    Each master seed builds its own model from ``model_spec``, with an init
    seed derived from both.
    """
    cfg = cfg or IRDConfig()
    integer("max_workers", max_workers, 1)
    plans = []
    for seed in spec.seeds:
        model = mz.build(replace(model_spec, seed=_derive_seed(model_spec.seed, seed)))
        plans.append(_plan_seed(spec, task, model, seed))
    # A slice of whole seeds per worker and usable core, all but the first
    # forked, on Linux before Python 3.12 (it warns on a fork with BLAS threads).
    forks = hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12)
    workers = max(1, min(max_workers, _usable_cores(), len(plans))) if forks else 1
    cuts = [i * len(plans) // workers for i in range(workers + 1)]
    slices = [[job for jobs, _ in plans[a:b] for job in jobs] for a, b in zip(cuts, cuts[1:])]
    results = iter(sum(_in_workers(
        [partial(_fine_tune, jobs, task.train, task.valid, cfg) for jobs in slices]), []))
    cells, traces = [], []
    for seed, (jobs, trace) in zip(spec.seeds, plans):
        scored = [next(results) for _ in jobs]
        cells += [GridCell(spec.sparsity_levels[ri], spec.sample_levels[ci], seed, score, status)
                  for (ri, ci), (score, status)
                  in zip(staircase_cells(len(spec.sparsity_levels)), scored)]
        if trace is not None:
            for record, (score, status) in zip(trace.records, scored[1:]):
                record.score, record.status = score, status
            traces.append({"seed": seed, **trace.to_json()})
    return GridResult(spec, cells, traces)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _in_workers(works) -> list:
    """The results of the calls ``works``: the first made here, each other in
    a forked child (``_fork``). A child's exception is raised again here, and
    once any call fails the children still running are killed."""
    children, results = [], []
    try:
        for work in works[1:]:
            children.append(_fork(work))
        results.append(works[0]())
        for pid, read_fd in children:
            data = b"".join(iter(partial(os.read, read_fd, 1 << 16), b""))
            value = pickle.loads(data) if data else RuntimeError(
                f"worker {pid} exited without a result")
            if isinstance(value, BaseException):
                raise value
            results.append(value)
    finally:
        for pid, read_fd in children:
            if len(results) < len(works):  # a call failed: stop the rest
                os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
    return results


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


def _plan_cell(spec, task, model, seed, ri, ci, ids=None):
    """A cell's job: a top-k mask over ``ids``, by default the cell's own draw."""
    if ids is None:
        ids = _draw_ids(len(task.train), spec.sample_levels[ci], _derive_seed(seed, ri, ci, 0))
    mask = top_k_mask(empirical_fisher(model, task.train, ids), sparsity=spec.sparsity_levels[ri])
    return model, mask, _derive_seed(seed, ri, ci, 1)


def _plan_seed(spec, task, model, seed):
    """A master seed's jobs in ``staircase_cells`` order, and trace (or None)."""
    if spec.mode == "fish_random":
        return [_plan_cell(spec, task, model, seed, ri, ci)
                for ri, ci in staircase_cells(len(spec.sparsity_levels))], None
    x0 = _draw_ids(len(task.train), spec.sample_levels[0], _derive_seed(seed, 0, 0, 0))
    mask_sizes = [mask_size(s, model.num_params) for s in spec.sparsity_levels]
    initial = _plan_cell(spec, task, model, seed, 0, 0, x0)
    trace, plan = _trajectory(model, task.train, x0, None, mask_sizes[0], _derive_seed(seed, 99),
                              spec.mode == "ird_inverse",
                              zip(spec.sample_levels[1:], mask_sizes[1:]))
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


GRID_KEYS = {"spec": {"sparsity_levels": ["a number"], "sample_levels": ["an integer"],
                      "mode": "a string", "seeds": ["an integer"]},
             "cells": [{"sparsity": "a number", "n_samples": "an integer",
                        "seed": "an integer", "score": "a number or null",
                        "status?": ("ok", "diverged", "undefined")}]}


def load_grid(path) -> GridResult:
    """A grid result file, its keys checked (``fileio.read_result``), its
    spec by ``GridSpec`` and each cell against the spec's levels: every
    rejection starts with the path."""
    d = read_result(path, GRID_KEYS)
    try:
        grid = GridResult.from_json(d)
    except ValueError as exc:  # the spec, from ``GridSpec``
        raise ValueError(f"{path}: {exc}") from None
    for i, cell in enumerate(grid.cells):
        for key, value, levels in (("sparsity", cell.sparsity, grid.spec.sparsity_levels),
                                   ("n_samples", cell.n_samples, grid.spec.sample_levels)):
            if value not in levels:
                raise ValueError(f"{path}: cells[{i}].{key} {value!r} is not one of the "
                                 f"spec's levels {list(levels)}")
    return grid
