"""Masked fine-tuning: optimizer updates restricted to selected indices.

Each batch gradient is projected onto the mask, so coordinates outside the
mask are provably untouched (bit-identical before and after any run).
Optimizer state is allocated only for masked indices. Dense layers below
the first one the mask reaches are frozen, so they run ahead of training
and only the layers above them run forward and backward at each step; the
fine-tunes of a group that share their frozen layers (``train_group``) step
together, as one stacked computation.
The loss is fixed by the model head (negative log-likelihood for
classifiers, mean squared error for regressors). ``TrainConfig.metric`` is
the one validation metric: it is read after every epoch, early stopping
fires after ``patience`` epochs without a strictly better reading (but only
once the best reading has cleared the stop threshold, so under-trained
models keep going), and the last reading is the run's score.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
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
        return {"epochs_run": self.epochs_run,
                "train_losses": self.train_losses,
                "val_metrics": self.val_metrics,
                "stopped_early": self.stopped_early,
                "final_hash": self.final_hash}


def early_stop_check(history, patience: int, threshold: float) -> bool:
    """True once the metric has gone ``patience`` epochs without a strict
    improvement over the running best, and that best exceeds ``threshold``."""
    if len(history) == 0:
        raise ValueError("empty metric history")
    best_idx = 0
    for i in range(1, len(history)):
        if history[i] > history[best_idx]:
            best_idx = i
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


def _check_mask(model, mask: Mask | None) -> np.ndarray | None:
    if mask is None:
        return None
    if mask.num_params != model.num_params:
        raise ValueError(f"mask covers {mask.num_params} params, model has {model.num_params}")
    if mask.model_hash is not None and mask.model_hash != model.content_hash():
        raise ValueError("mask was built for a different parameter snapshot")
    return mask.selected


def _first_trained_layer(model, selected: np.ndarray | None) -> int:
    """Index of the first dense layer holding a selected coordinate; 0 for
    dense training, an empty mask, or a model without dense layers."""
    if selected is None or len(selected) == 0:
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


def _stacked_pass_agrees(model, k, head, block, train_ds, ids, x, step, values, grads) -> bool:
    """Whether each job's slice of a stacked step equals, byte for byte, the
    job's frozen layers run on its own rows and its head run alone."""
    for j, params in enumerate(block):
        own_x = model.layer_input(train_ds.inputs[ids[j]], k)
        own = mz.DensePass(head, own_x, params)
        value, grad = own.loss_gradient(train_ds.labels[ids[j]])
        pairs = [(own_x, x[j]), (own.output, step.output[j]), (value, values[j]), (grad, grads[j])]
        if any(a.tobytes() != b.tobytes() for a, b in pairs):
            return False
    return True


def _train_heads(models, selections, k: int, train_ds, valid_ds, cfgs, metric: str):
    """Fine-tune jobs whose equal layers 0..k-1 are frozen, with configs that
    differ at most in the seed, as one loop: each job's outcome, or None if
    the first full batch fails its check. The frozen layers run once per
    split. A step gathers each live job's own batch into a (jobs, batch,
    width) input, runs ``DensePass`` over a (jobs, head parameters) block and
    takes one optimizer step over every job's selected coordinates. A job
    leaves when it stops early, diverges or reads an undefined metric. The
    check is a sample: it relies on the kernels treating every full batch of
    the group as they treat the first."""
    model, cfg, n, size = models[0], cfgs[0], len(train_ds), cfgs[0].batch_size
    head = model.head(k)
    offset = model.num_params - head.num_params
    rows = _frozen_rows(model, k, train_ds.inputs, size)
    valid_rows = model.layer_input(valid_ds.inputs, k)
    block = np.stack([m.params.data[offset:] for m in models])
    sel = [s - offset for s in selections]
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    losses, readings = [[] for _ in models], [[] for _ in models]
    outcomes, live = [None] * len(models), list(range(len(models)))
    state = AdamState.for_size(sum(len(s) for s in sel))

    def leave(done: dict) -> np.ndarray:
        """Retire each job in ``done`` (to its error, or stopped early or not)."""
        nonlocal block
        keep = np.array([j not in done for j in live], dtype=bool)
        for row in np.flatnonzero(~keep):
            j = live[row]
            models[j].params.data[offset:] = block[row]
            outcomes[j] = done[j] if isinstance(done[j], Exception) else TrainReport(
                len(losses[j]), losses[j], readings[j], done[j], models[j].content_hash())
        coords = np.repeat(keep, [len(sel[j]) for j in live])
        state.m, state.v = state.m[coords], state.v[coords]
        block, live[:] = block[keep], [j for j in live if j not in done]
        return keep

    for epoch in range(cfg.max_epochs):
        perms = np.stack([rngs[j].permutation(n) for j in live])
        batch_losses = np.empty((len(live), -(-n // size)))
        for bi, start in enumerate(range(0, n, size)):
            ids = perms[:, start:start + size]
            x = rows[ids] if ids.shape[1] == min(size, n) else np.stack(
                [model.layer_input(train_ds.inputs[i], k) for i in ids])
            step = mz.DensePass(head, x, block)
            values, grads = step.loss_gradient(train_ds.labels[ids])
            if epoch == bi == 0 and not _stacked_pass_agrees(
                    model, k, head, block, train_ds, ids, x, step, values, grads):
                return None
            finite = np.isfinite(values)
            if not finite.all():
                keep = leave({j: TrainingDiverged(epoch + 1, bi + 1, values[row])
                              for row, j in enumerate(live) if not finite[row]})
                if not live:
                    return outcomes
                perms, values, grads, batch_losses = (
                    perms[keep], values[keep], grads[keep], batch_losses[keep])
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
                continue
            losses[j].append(float(np.mean(batch_losses[row])))
            preds = np.argmax(mz.DensePass(head, valid_rows, block[row]).output, axis=-1)
            try:
                readings[j].append(met.evaluate(metric, preds, valid_ds.labels))
            except met.UndefinedMetric as exc:
                done[j] = exc
                continue
            if early_stop_check(readings[j], cfg.patience, cfg.stop_threshold):
                done[j] = True
        leave(done)
        if not live:
            return outcomes
    leave(dict.fromkeys(live, False))
    return outcomes


def train_group(models, masks, train_ds, valid_ds, cfgs) -> list:
    """Each job's ``train_masked(models[j], masks[j], train_ds, valid_ds,
    cfgs[j])``, byte for byte: its report, or the ``TrainingDiverged`` or
    ``UndefinedMetric`` it raised. Masks and metrics are checked before any
    job runs. Jobs whose mask first reaches the same dense layer k > 0, whose
    models hold equal layers 0..k-1 and whose configs differ at most in the
    seed run together in ``_train_heads``; the rest run one at a time."""
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
        for i, (j, _) in enumerate(jobs):
            try:
                outcomes[j] = done[i] if done else train_masked(models[j], masks[j], train_ds,
                                                                valid_ds, cfgs[j])
            except (TrainingDiverged, met.UndefinedMetric) as exc:
                outcomes[j] = exc
    return outcomes


def train_masked(model, mask: Mask | None, train_ds, valid_ds,
                 cfg: TrainConfig) -> TrainReport:
    """Fine-tune ``model`` in place, updating only mask-selected indices.

    ``mask=None`` trains densely. Batches are drawn in seeded shuffled order;
    two runs with identical model, data and config produce identical loss
    curves and final parameters. The metric is checked against the model head
    and the validation labels before the first step. A non-finite loss, or
    non-finite updated coordinates after an epoch's last step, raise
    ``TrainingDiverged``.

    When the lowest selected coordinate sits in dense layer k > 0, layers
    0..k-1 are frozen and the run is a group of one in ``_train_heads``;
    otherwise, or if that group fails its first-batch check, every step runs
    the whole model. Losses, readings and parameters are the same either way.
    """
    selected = _check_mask(model, mask)
    metric = met.check_metric(cfg.metric, model, valid_ds)
    k = _first_trained_layer(model, selected)
    done = k and _train_heads([model], [selected], k, train_ds, valid_ds, [cfg], metric)
    if done and isinstance(done[0], Exception):
        raise done[0]
    if done:
        return done[0]
    rng = np.random.default_rng(cfg.seed)
    n_train = len(train_ds)
    state = AdamState.for_size(len(selected) if selected is not None else model.num_params)
    train_losses: list[float] = []
    val_metrics: list[float] = []
    stopped_early = False
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n_train)
        batch_losses = []
        for bi, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            value, grad = ad.loss_gradient(model, train_ds.inputs[idx], train_ds.labels[idx])
            if not np.isfinite(value):
                raise TrainingDiverged(epoch + 1, bi + 1, value)
            if cfg.optimizer == "sgd":
                sgd_step(model.params.data, grad, cfg.learning_rate, selected)
            else:
                adam_step(model.params.data, grad, state, cfg.learning_rate,
                          cfg.betas, cfg.eps, selected=selected)
            batch_losses.append(value)
        # Every earlier step is caught by the next step's loss check.
        updated = model.params.data if selected is None else model.params.data[selected]
        if not np.isfinite(updated).all():
            bad = updated[~np.isfinite(updated)][0]
            raise TrainingDiverged(epoch + 1, len(batch_losses), bad, "parameters")
        train_losses.append(float(np.mean(batch_losses)))
        val_metrics.append(met.score(metric, model, valid_ds))
        if early_stop_check(val_metrics, cfg.patience, cfg.stop_threshold):
            stopped_early = True
            break
    return TrainReport(len(train_losses), train_losses, val_metrics,
                       stopped_early, model.content_hash())
