"""Masked fine-tuning: optimizer updates restricted to selected indices.

The full-batch gradient is computed densely and then projected onto the mask,
so coordinates outside the mask are provably untouched (bit-identical before
and after any run). Optimizer state is allocated only for masked indices.
Early stopping fires after ``patience`` epochs without a strictly better
validation metric, but only once the best metric has cleared the stop
threshold, so under-trained models keep going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as met
from .fisher import Mask


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch/batch where it happened."""

    def __init__(self, epoch: int, batch: int, value: float):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # sgd | adam
    learning_rate: float = 5e-5
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 10
    stop_threshold: float = 0.3
    seed: int = 0
    loss: str = "auto"               # nll | mse | auto (matches the model head)
    metric: str = "auto"
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
        if self.loss not in ("auto", "nll", "mse"):
            raise ValueError(f"unknown loss {self.loss!r}")


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


def _check_loss(model, loss: str) -> None:
    if loss == "auto":
        return
    if loss == "nll" and not model.is_classifier:
        raise ValueError("nll loss needs a classifier")
    if loss == "mse" and model.is_classifier:
        raise ValueError("mse loss needs a scalar-output model")


def train_masked(model, mask: Mask | None, train_ds, valid_ds,
                 cfg: TrainConfig) -> TrainReport:
    """Fine-tune ``model`` in place, updating only mask-selected indices.

    ``mask=None`` trains densely. Batches are drawn in seeded shuffled order;
    two runs with identical model, data and config produce identical loss
    curves and final parameters.
    """
    selected = _check_mask(model, mask)
    _check_loss(model, cfg.loss)
    metric = met.resolve_metric(cfg.metric, valid_ds.task)
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
            value, grad = ad.loss_gradient(model, train_ds.inputs[idx],
                                           train_ds.labels[idx])
            if not np.isfinite(value):
                raise TrainingDiverged(epoch + 1, bi + 1, value)
            if cfg.optimizer == "sgd":
                sgd_step(model.params.data, grad, cfg.learning_rate, selected)
            else:
                adam_step(model.params.data, grad, state, cfg.learning_rate,
                          cfg.betas, cfg.eps, selected=selected)
            batch_losses.append(value)
        train_losses.append(float(np.mean(batch_losses)))
        val_metrics.append(met.score(metric, model, valid_ds))
        if early_stop_check(val_metrics, cfg.patience, cfg.stop_threshold):
            stopped_early = True
            break
    return TrainReport(len(train_losses), train_losses, val_metrics,
                       stopped_early, model.content_hash())
