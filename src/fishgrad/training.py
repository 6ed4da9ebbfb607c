"""Masked fine-tuning: optimizer updates restricted to selected indices.

Each batch gradient is projected onto the mask, so coordinates outside the
mask are provably untouched (bit-identical before and after any run).
Optimizer state is allocated only for masked indices. Dense layers below
the first one the mask reaches are frozen, so they run ahead of training
and only the layers above them run forward and backward at each step.
The loss is fixed by the model head (negative log-likelihood for
classifiers, mean squared error for regressors). ``TrainConfig.metric`` is
the one validation metric: it is read after every epoch, early stopping
fires after ``patience`` epochs without a strictly better reading (but only
once the best reading has cleared the stop threshold, so under-trained
models keep going), and the last reading is the run's score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import metrics as met
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


class _FrozenInputs:
    """The input of dense layer ``k`` for a batch of training rows, in a
    fine-tune that leaves layers 0..k-1 frozen.

    The frozen layers run once over every training row, in chunks of a full
    batch's size (the last chunk ends at the last row), and a full batch
    reads its rows from those chunks. A row of a matrix product can differ
    in its last bits with the product's shape (numpy multiplies one row with
    gemv; OpenBLAS picks kernels by size, and runs larger products on its
    thread pool) and, with some kernels, with the row's position in it.
    Chunks take a batch's shape; a shorter batch runs the frozen layers
    itself, and so does the first full batch, whose rows are compared with
    the chunks byte for byte. On a mismatch, every later batch runs them
    itself too. The check is a sample: it relies on the kernel treating
    every full batch of a fine-tune as it treats the first.
    """

    def __init__(self, model, k: int, inputs: np.ndarray, batch_size: int):
        self.model, self.k, self.inputs = model, k, inputs
        n = len(inputs)
        self.full = m = min(batch_size, n)
        self.cache = np.empty((n, model.spec.hidden[k - 1]))
        for start in range(0, n, batch_size):
            s = min(start, n - m)
            self.cache[s:s + m] = model.layer_input(inputs[s:s + m], k)
        self.checked = False

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        full = self.cache is not None and len(ids) == self.full
        if full and self.checked:
            return self.cache[ids]
        rows = self.model.layer_input(self.inputs[ids], self.k)
        if full:
            self.checked = True
            if rows.tobytes() != self.cache[ids].tobytes():
                self.cache = None
        return rows


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
    0..k-1 are frozen: they run once over the validation split and once over
    the training split (see ``_FrozenInputs``), and the steps and validation
    readings run on ``model.head(k)``, which shares the model's storage.
    Losses, readings and parameters equal the full model's byte for byte.
    """
    selected = _check_mask(model, mask)
    metric = met.check_metric(cfg.metric, model, valid_ds)
    rng = np.random.default_rng(cfg.seed)
    n_train = len(train_ds)
    k = _first_trained_layer(model, selected)
    net, batch_inputs = model, train_ds.inputs.__getitem__
    if k:
        net = model.head(k)
        batch_inputs = _FrozenInputs(model, k, train_ds.inputs, cfg.batch_size)
        selected = selected - model.params.segment(model.dense_layers()[k][0]).offset
        valid_ds = replace(valid_ds, inputs=model.layer_input(valid_ds.inputs, k))
    state = AdamState.for_size(len(selected) if selected is not None else model.num_params)
    train_losses: list[float] = []
    val_metrics: list[float] = []
    stopped_early = False
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n_train)
        batch_losses = []
        for bi, start in enumerate(range(0, n_train, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            value, grad = ad.loss_gradient(net, batch_inputs(idx), train_ds.labels[idx])
            if not np.isfinite(value):
                raise TrainingDiverged(epoch + 1, bi + 1, value)
            if cfg.optimizer == "sgd":
                sgd_step(net.params.data, grad, cfg.learning_rate, selected)
            else:
                adam_step(net.params.data, grad, state, cfg.learning_rate,
                          cfg.betas, cfg.eps, selected=selected)
            batch_losses.append(value)
        # Every earlier step is caught by the next step's loss check.
        updated = net.params.data if selected is None else net.params.data[selected]
        if not np.isfinite(updated).all():
            bad = updated[~np.isfinite(updated)][0]
            raise TrainingDiverged(epoch + 1, len(batch_losses), bad, "parameters")
        train_losses.append(float(np.mean(batch_losses)))
        val_metrics.append(met.score(metric, net, valid_ds))
        if early_stop_check(val_metrics, cfg.patience, cfg.stop_threshold):
            stopped_early = True
            break
    return TrainReport(len(train_losses), train_losses, val_metrics,
                       stopped_early, model.content_hash())
