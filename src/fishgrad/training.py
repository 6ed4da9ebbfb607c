"""Masked fine-tuning: optimizer updates restricted to selected indices.

Each batch gradient is projected onto the mask, so coordinates outside the
mask are provably untouched (bit-identical before and after any run).
Optimizer state is allocated only for masked indices. Every fine-tune runs
in one loop (``_run_jobs``) with one of two step sources: jobs whose mask
first reaches dense layer k > 0 freeze layers 0..k-1, run them once ahead of
training and step their heads together as one stacked computation
(``_train_heads``); any other job steps its whole model alone.
The loss is fixed by the model head (negative log-likelihood for
classifiers, mean squared error for regressors). ``TrainConfig.metric`` is
the one validation metric: it is read after every epoch, early stopping
fires after ``patience`` epochs without a strictly better reading (but only
once the best reading has cleared the stop threshold, so under-trained
models keep going), and the last reading is the run's score.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from . import metrics as met
from . import models as mz
from .fisher import Mask


class TrainingDiverged(RuntimeError):
    """The loss or the updated parameters became non-finite; carries the
    epoch/batch where it was seen and the offending value."""

    def __init__(self, epoch: int, batch: int, value: float, what: str = "loss"):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        super().__init__(f"non-finite {what} {value} at epoch {epoch}, batch {batch}")


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # sgd | adam
    learning_rate: float = 5e-5
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 10
    stop_threshold: float = 0.3
    seed: int = 0
    metric: str = "auto"             # a metrics.METRICS name, or the task default
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("learning_rate", "eps", "stop_threshold"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        betas = tuple(self.betas) if isinstance(self.betas, (tuple, list)) else ()
        if len(betas) != 2 or not all(isinstance(b, numbers.Real) and 0 <= b < 1 for b in betas):
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = betas
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.metric != "auto" and self.metric not in met.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class TrainReport:
    epochs_run: int
    train_losses: list[float]
    val_metrics: list[float]
    stopped_early: bool
    final_hash: str

    def to_json(self) -> dict:
        return asdict(self)


def early_stop_check(history, patience: int, threshold: float) -> bool:
    """True once the metric has gone ``patience`` epochs without a strict
    improvement over the running best, and that best exceeds ``threshold``."""
    if len(history) == 0:
        raise ValueError("empty metric history")
    best_idx = max(range(len(history)), key=history.__getitem__)  # the first best
    stale = len(history) - 1 - best_idx
    return stale >= patience and history[best_idx] > threshold


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float,
             selected: np.ndarray | None = None) -> None:
    """In-place SGD update on the selected indices (all, when None)."""
    if selected is None:
        params -= lr * grads
    else:
        params[selected] -= lr * grads[selected]


@dataclass
class AdamState:
    """First/second-moment accumulators, sized to the trainable index set."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def for_size(n: int) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              t: int | None = None, selected: np.ndarray | None = None) -> None:
    """Bias-corrected Adam update in place, restricted to ``selected``.

    ``t`` is the 1-based step count; by default the state's counter is
    advanced and used.
    """
    if t is None:
        state.t += 1
        t = state.t
    if t < 1:
        raise ValueError(f"Adam step count must be >= 1, got {t}")
    b1, b2 = betas
    g = grads if selected is None else grads[selected]
    state.m = b1 * state.m + (1 - b1) * g
    state.v = b2 * state.v + (1 - b2) * (g * g)
    m_hat = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    if selected is None:
        params -= update
    else:
        params[selected] -= update


def _check_mask(model, mask: Mask | None) -> np.ndarray:
    if mask is None:
        return np.arange(model.num_params)  # dense training: every coordinate
    if mask.num_params != model.num_params:
        raise ValueError(f"mask covers {mask.num_params} params, model has {model.num_params}")
    if mask.model_hash is not None and mask.model_hash != model.content_hash():
        raise ValueError("mask was built for a different parameter snapshot")
    return mask.selected


def _first_trained_layer(model, selected: np.ndarray) -> int:
    """Index of the first dense layer holding a selected coordinate; 0 for
    dense training, an empty mask, or a model without dense layers."""
    if len(selected) == 0:
        return 0
    starts = [model.params.segment(w).offset for w, _ in model.dense_layers()]
    return max(int(np.searchsorted(starts, selected[0], side="right")) - 1, 0)


def _frozen_rows(model, k: int, inputs: np.ndarray, batch_size: int) -> np.ndarray:
    """The input of dense layer ``k`` for every row, from layers 0..k-1 run
    over chunks of a full batch's shape (the last chunk ends at the last row).
    A row of a matrix product can differ in its last bits with the product's
    shape (numpy multiplies one row with gemv; OpenBLAS picks kernels by size)
    and, with some kernels, with the row's position in it: so a shorter batch
    runs the frozen layers itself, and ``_train_heads`` checks a full one."""
    n, m = len(inputs), min(batch_size, len(inputs))
    rows = np.empty((n, model.spec.hidden[k - 1]))
    for start in range(0, n, batch_size):
        s = min(start, n - m)
        rows[s:s + m] = model.layer_input(inputs[s:s + m], k)
    return rows


def _run_jobs(models, sel, block, train_ds, cfgs, step, read):
    """The fine-tune loop. Job j steps coordinates ``sel[j]`` of row j of
    ``block`` (jobs, parameters), the trailing parameters of ``models[j]``;
    configs differ at most in the seed. ``step(ids, block, check)`` gives
    each live job's loss and gradient on its training rows ``ids`` (jobs,
    batch), or (None, None) if ``check`` (the first batch) fails, and
    ``read(params)`` one thunk per row of a (jobs, parameters) block that
    gives the job's validation reading. Returns each job's outcome, or None
    after a failed check. A job leaves, its parameters written back, when it
    stops early, diverges or reads an undefined metric."""
    cfg, n, size = cfgs[0], len(train_ds), cfgs[0].batch_size
    offset = models[0].num_params - block.shape[1]
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    losses, readings = [[] for _ in models], [[] for _ in models]
    outcomes, live = [None] * len(models), list(range(len(models)))
    state = AdamState.for_size(sum(len(s) for s in sel))

    def leave(done: dict) -> np.ndarray:
        """Retire each job in ``done`` (to its error, or stopped early or not)."""
        nonlocal block, flat
        keep = np.array([j not in done for j in live], dtype=bool)
        for row in np.flatnonzero(~keep):
            j = live[row]
            models[j].params.data[offset:] = block[row]
            outcomes[j] = done[j] if isinstance(done[j], Exception) else TrainReport(
                len(losses[j]), losses[j], readings[j], done[j], models[j].content_hash())
        coords = np.repeat(keep, [len(sel[j]) for j in live])
        state.m, state.v = state.m[coords], state.v[coords]
        block, live[:], flat = block[keep], [j for j in live if j not in done], None
        return keep

    flat = None  # each live job's selected coordinates in the flattened block
    for epoch in range(cfg.max_epochs):
        perms = np.stack([rngs[j].permutation(n) for j in live])
        batch_losses = np.empty((len(live), -(-n // size)))
        for bi, start in enumerate(range(0, n, size)):
            values, grads = step(perms[:, start:start + size], block, epoch == bi == 0)
            if values is None:
                return None
            finite = np.isfinite(values)
            if not finite.all():
                keep = leave({j: TrainingDiverged(epoch + 1, bi + 1, values[row])
                              for row, j in enumerate(live) if not finite[row]})
                if not live:
                    return outcomes
                perms, values, grads, batch_losses = (
                    perms[keep], values[keep], grads[keep], batch_losses[keep])
            if flat is None:
                flat = np.concatenate([row * block.shape[1] + sel[j] for row, j in enumerate(live)])
            if cfg.optimizer == "sgd":
                sgd_step(block.reshape(-1), grads.reshape(-1), cfg.learning_rate, flat)
            else:
                adam_step(block.reshape(-1), grads.reshape(-1), state, cfg.learning_rate,
                          cfg.betas, cfg.eps, selected=flat)
            batch_losses[:, bi] = values
        done = {}
        for row, j in enumerate(live):
            # Every earlier step is caught by the next step's loss check.
            updated = block[row, sel[j]]
            if not np.isfinite(updated).all():
                done[j] = TrainingDiverged(epoch + 1, batch_losses.shape[1],
                                           updated[~np.isfinite(updated)][0], "parameters")
        readable = [row for row, j in enumerate(live) if j not in done]
        for row, reading in zip(readable, read(block[readable])):
            j = live[row]
            losses[j].append(float(np.mean(batch_losses[row])))
            try:
                readings[j].append(reading())
            except met.UndefinedMetric as exc:
                done[j] = exc
                continue
            if early_stop_check(readings[j], cfg.patience, cfg.stop_threshold):
                done[j] = True
        if done:  # a block that views a model's parameters must stay a view
            leave(done)
        if not live:
            return outcomes
    leave(dict.fromkeys(live, False))
    return outcomes


def _train_heads(models, selections, k: int, train_ds, valid_ds, cfgs, metric: str):
    """The stacked step source: jobs whose equal layers 0..k-1 are frozen
    step their heads as a (jobs, head parameters) block in ``_run_jobs``.
    The frozen layers run once per split; a step gathers each live job's
    own batch into a (jobs, batch, width) input and runs ``DensePass`` over
    the block (a short batch runs the frozen layers on the stacked rows).
    The first full batch is checked byte for byte against each job run
    alone: a sample that relies on the kernels treating every full batch of
    the group as they treat the first. If the cached frozen rows differ
    there, every batch runs the frozen layers itself."""
    model, n, size = models[0], len(train_ds), cfgs[0].batch_size
    head = model.head(k)
    offset = model.num_params - head.num_params
    rows = _frozen_rows(model, k, train_ds.inputs, size)
    valid_rows = model.layer_input(valid_ds.inputs, k)

    def step(ids, block, check):
        nonlocal rows
        cached = rows is not None and ids.shape[1] == min(size, n)
        x = rows[ids] if cached else model.layer_input(train_ds.inputs[ids], k)
        own_x = [model.layer_input(train_ds.inputs[i], k) for i in ids] if check else ()
        if cached and any(a.tobytes() != b.tobytes() for a, b in zip(own_x, x)):
            rows, x = None, model.layer_input(train_ds.inputs[ids], k)  # per batch from now
        out = mz.DensePass(head, x, block)
        values, grads = out.loss_gradient(train_ds.labels[ids])
        for j, params in enumerate(block if check else ()):  # each job's pass run alone
            own = mz.DensePass(head, own_x[j], params)
            value, grad = own.loss_gradient(train_ds.labels[ids[j]])
            pairs = [(own_x[j], x[j]), (own.output, out.output[j]), (value, values[j]),
                     (grad, grads[j])]
            if any(a.tobytes() != b.tobytes() for a, b in pairs):
                return None, None
        return values, grads

    def read(params):
        preds = np.argmax(mz.DensePass(head, valid_rows, params).output, axis=-1)
        return [partial(met.evaluate, metric, p, valid_ds.labels) for p in preds]

    return _run_jobs(models, [s - offset for s in selections],
                     np.stack([m.params.data[offset:] for m in models]), train_ds, cfgs,
                     step, read)


def _train_model(model, selected, train_ds, valid_ds, cfg, metric: str):
    """The full-model step source, for one job: ``ad.loss_gradient`` on the
    whole model, whose parameters the block views, and ``metrics.score``."""
    def step(ids, block, check):
        value, grad = ad.loss_gradient(model, train_ds.inputs[ids[0]], train_ds.labels[ids[0]])
        return np.array([value]), grad[None]

    return _run_jobs([model], [selected], model.params.data[None], train_ds, [cfg], step,
                     lambda params: [partial(met.score, metric, model, valid_ds)])[0]


def train_group(models, masks, train_ds, valid_ds, cfgs) -> list:
    """Fine-tune ``models[j]`` in place under ``masks[j]`` and ``cfgs[j]``
    for each job: its report, or the ``TrainingDiverged`` or
    ``UndefinedMetric`` it ended with. Masks and metrics are checked before
    any job runs. Every job runs in one loop, with one of two step sources.
    Jobs whose mask first reaches the same dense layer k > 0, whose models
    hold equal layers 0..k-1 and whose configs differ at most in the seed
    step their heads together (``_train_heads``); every other job, and each
    job of a group that fails its first-batch check, steps its whole model
    alone (``_train_model``). Losses, readings and parameters are the same
    either way."""
    groups: dict = {}
    for j, (model, mask, cfg) in enumerate(zip(models, masks, cfgs)):
        selected = _check_mask(model, mask)
        metric = met.check_metric(cfg.metric, model, valid_ds)
        k = _first_trained_layer(model, selected)
        start = k and model.params.segment(model.dense_layers()[k][0]).offset
        key = (k, model.params.data[:start].tobytes(), astuple(replace(cfg, seed=0)), metric)
        groups.setdefault(key if k else j, (k, metric, []))[2].append((j, selected))
    outcomes: list = [None] * len(models)
    for k, metric, jobs in groups.values():
        done = k and _train_heads([models[j] for j, _ in jobs], [s for _, s in jobs], k,
                                  train_ds, valid_ds, [cfgs[j] for j, _ in jobs], metric)
        for i, (j, selected) in enumerate(jobs):
            outcomes[j] = done[i] if done else _train_model(models[j], selected, train_ds,
                                                            valid_ds, cfgs[j], metric)
    return outcomes


def train_masked(model, mask: Mask | None, train_ds, valid_ds,
                 cfg: TrainConfig) -> TrainReport:
    """Fine-tune ``model`` in place, updating only mask-selected indices
    (all, for ``mask=None``): a group of one in ``train_group``, whose
    ``TrainingDiverged`` or ``UndefinedMetric`` it raises.

    Batches are drawn in seeded shuffled order; two runs with identical
    model, data and config produce identical loss curves and final
    parameters. The metric is checked against the model head and the
    validation labels before the first step. A non-finite loss, or
    non-finite updated coordinates after an epoch's last step, end the run.
    """
    outcome = train_group([model], [mask], train_ds, valid_ds, [cfg])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
