"""Masked fine-tuning: optimizer updates restricted to selected indices.

Each batch gradient is projected onto the mask, so coordinates outside the
mask are provably untouched (bit-identical before and after any run). Both
optimizers (``sgd_step``, ``adam_step``) step only the flat indices they are
given, every index for dense training (no mask), and Adam's state is
kept only for those. Every fine-tune runs in one loop
(``_train_heads``): jobs run the layers below k, the first dense layer their
masks reach (0 for tiny_attention, which has none), once ahead of training
and step layers k.. together, through one pass of the model's
``pass_class`` built over the group's parameter block and built again only
when a job leaves. On a dense stack a batch costs its gather, one forward
and one backward pass, and an in-place optimizer step; tiny_attention's
``TapePass`` steps each job on the tape. The loss is fixed by the model head
(negative log-likelihood for classifiers, mean squared error for
regressors).
``TrainConfig.metric`` is the one validation metric: it is read after every
epoch, early stopping fires after ``patience`` epochs without a strictly
better reading (but only once the best reading has cleared the stop
threshold, so under-trained models keep going), and the last reading is the
run's score.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import metrics as met
from ._check import integer, real
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
        real("learning_rate", self.learning_rate, "(0, inf)")
        real("eps", self.eps, "(0, inf)")
        real("stop_threshold", self.stop_threshold, "(-inf, inf)")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            integer(name, getattr(self, name), least)
        if not isinstance(self.betas, (tuple, list)) or len(self.betas) != 2:
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = tuple(real("betas", b, "[0, 1)") for b in self.betas)
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


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, selected: np.ndarray) -> None:
    """In-place SGD update on the ``selected`` indices."""
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
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8, *,
              selected: np.ndarray) -> None:
    """Bias-corrected Adam update in place, restricted to ``selected``; it
    advances the state's 1-based step count and uses it. The moments update
    in place, through two temporaries, and every value is rounded as in the
    textbook recurrence m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    params -= lr m_hat / (sqrt(v_hat) + eps)."""
    state.t += 1
    b1, b2 = betas
    g = grads[selected]
    step = g * g
    step *= 1 - b2
    state.v *= b2
    state.v += step
    g *= 1 - b1
    state.m *= b1
    state.m += g
    np.divide(state.m, 1 - b1 ** state.t, out=step)  # m_hat
    step *= lr
    np.divide(state.v, 1 - b2 ** state.t, out=g)  # v_hat
    np.sqrt(g, out=g)
    g += eps
    step /= g
    params[selected] -= step


def _check_mask(model, mask: Mask | None) -> np.ndarray:
    if mask is None:
        return np.arange(model.num_params)  # dense training: every coordinate
    if mask.num_params != model.num_params:
        raise ValueError(f"mask covers {mask.num_params} params, model has {model.num_params}")
    if mask.model_hash is not None and mask.model_hash != model.content_hash():
        raise ValueError("mask was built for a different parameter snapshot")
    return mask.selected


def _first_trained_layer(model, selected: np.ndarray) -> tuple[int, int]:
    """The first dense layer holding a selected coordinate (0 for dense
    training, an empty mask, or a model without dense layers), and the
    offset of its weight (0 without dense layers)."""
    starts = [model.params.segment(w).offset for w, _ in model.dense_layers()] or [0]
    k = len(selected) and max(int(np.searchsorted(starts, selected[0], side="right")) - 1, 0)
    return k, starts[k]


def _frozen_rows(model, k: int, inputs: np.ndarray, batch_size: int) -> np.ndarray:
    """The input of dense layer ``k`` for every row, from layers 0..k-1 run
    over chunks of a full batch's shape (the last chunk ends at the last row).
    A row of a matrix product can differ in its last bits with the product's
    shape (numpy multiplies one row with gemv; OpenBLAS picks kernels by size)
    and, with some kernels, with the row's position in it: so a shorter batch
    runs the frozen layers itself, and ``_train_heads`` checks a full one."""
    n, m = len(inputs), min(batch_size, len(inputs))
    rows = None
    for start in range(0, n, batch_size):
        s = min(start, n - m)
        chunk = model.layer_input(inputs[s:s + m], k)
        if rows is None:  # float64 activations, or tiny_attention's int ids
            rows = np.empty((n, *chunk.shape[1:]), chunk.dtype)
        rows[s:s + m] = chunk
    return rows


def _train_heads(models, selections, k: int, start: int, train_ds, valid_ds, cfgs,
                 metric: str, own):
    """The fine-tune loop. Job j steps coordinates ``selections[j]`` of
    ``models[j]`` from ``start``, layer k's weight; the jobs' layers 0..k-1
    (none, at k = 0) are equal and frozen, and their configs differ at most
    in the seed. The frozen layers run once per split, and the labels are
    checked once. The jobs step as one (jobs, parameters) block, updated in
    place, through one pass of the model, both built again only when a job
    leaves. A step gathers each live job's own batch into a (jobs, batch,
    width) input (a short batch runs the frozen layers on the stacked rows).
    The first full batch is checked bit for bit against each job run alone,
    one job at a time: a sample that relies on the kernels treating every
    full batch of the group as they treat the first. If only the cached
    frozen rows differ, the step runs again from the inputs, and so does
    every batch after it. A lone job steps its own 2-D batch, the pass the
    check compares against, so it cannot fail. Returns each job's outcome,
    or None after a failed check. A job leaves when it stops early,
    diverges or reads an undefined metric; its parameters are written back
    only where ``own[j]`` (a model no other job reads), and its report's
    ``final_hash`` is hashed from the frozen layers and its block row: the
    ``content_hash`` of its parameters, written back or not."""
    model, cfg, n, size = models[0], cfgs[0], len(train_ds), cfgs[0].batch_size
    rows = _frozen_rows(model, k, train_ds.inputs, size)
    valid_rows = model.layer_input(valid_ds.inputs, k)
    labels = model.check_labels(train_ds.labels)
    frozen = hashlib.sha256(model.params.data[:start].astype("<f8", copy=False))
    sel, lone = [s - start for s in selections], len(models) == 1
    block = np.stack([m.params.data[start:] for m in models])
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    losses, readings = [[] for _ in models], [[] for _ in models]
    outcomes, live = [None] * len(models), list(range(len(models)))
    state = AdamState.for_size(sum(len(s) for s in sel))
    out = flat = None  # the block's pass, and the live jobs' coordinates in the flat block

    def leave(done: dict) -> np.ndarray:
        """Retire each job in ``done`` (to its error, or stopped early or not)."""
        nonlocal block, out, flat
        keep = np.array([j not in done for j in live], dtype=bool)
        for row in np.flatnonzero(~keep):
            j = live[row]
            if own[j]:
                models[j].params.data[start:] = block[row]
            digest = frozen.copy()
            digest.update(block[row].astype("<f8", copy=False))
            outcomes[j] = done[j] if isinstance(done[j], Exception) else TrainReport(
                len(losses[j]), losses[j], readings[j], done[j], digest.hexdigest())
        coords = np.repeat(keep, [len(sel[j]) for j in live])
        state.m, state.v = state.m[coords], state.v[coords]
        block, live[:], out, flat = block[keep], [j for j in live if j not in done], None, None
        return keep

    def same(a, b) -> bool:
        """Bit for bit, in place."""
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
            a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))

    def step(ids, check):
        """Each live job's loss and gradient on its rows ``ids`` (jobs,
        batch), or (None, None) if ``check`` fails. The check holds one
        job's own input and pass at a time, and returning frees the batch's
        input before the next gather."""
        nonlocal rows, out
        if out is None:
            out = model.pass_class(model, block[0] if lone else block, k)
        sub = ids[0] if lone else ids
        while True:
            cached = rows is not None and ids.shape[1] == min(size, n)
            x = rows[sub] if cached else model.layer_input(train_ds.inputs[sub], k)
            values, grads = out.run(x).loss_gradient(labels[sub])
            for j in range(len(ids) if check else 0):
                own_x = model.layer_input(train_ds.inputs[ids[j]], k)
                if not same(own_x, x if lone else x[j]):
                    break
                if not lone:
                    alone = model.pass_class(model, block[j], k).run(own_x)
                    value, grad = alone.loss_gradient(labels[ids[j]])
                    if not (same(alone.output, out.output[j]) and same(value, values[j])
                            and same(grad, grads[j])):
                        return None, None
                own_x = alone = None  # freed before the next job's input
            else:
                return values.reshape(len(block)), grads.reshape(len(block), -1)
            if not cached:
                return None, None
            rows = None  # per batch from now, this batch too

    for epoch in range(cfg.max_epochs):
        perms = np.stack([rngs[j].permutation(n) for j in live])
        batch_losses = np.empty((len(live), -(-n // size)))
        for bi, begin in enumerate(range(0, n, size)):
            values, grads = step(perms[:, begin:begin + size], epoch == bi == 0)
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
        preds = model.pass_class(model, block[readable], k).run(valid_rows).predictions
        for row, p in zip(readable, preds):
            j = live[row]
            losses[j].append(float(np.mean(batch_losses[row])))
            try:
                readings[j].append(met.evaluate(metric, p, valid_ds.labels))
            except met.UndefinedMetric as exc:
                done[j] = exc
                continue
            if early_stop_check(readings[j], cfg.patience, cfg.stop_threshold):
                done[j] = True
        if done:  # leaving copies the block, and the pass is built again
            leave(done)
        if not live:
            return outcomes
    leave(dict.fromkeys(live, False))
    return outcomes


def train_group(models, masks, train_ds, valid_ds, cfgs) -> list:
    """Fine-tune ``models[j]`` under ``masks[j]`` and ``cfgs[j]`` for each
    job: its report, or the ``TrainingDiverged`` or ``UndefinedMetric`` it
    ended with. A model object that several jobs share is read, never
    written: each of its jobs trains and reports as it would on a clone of
    its own, ``final_hash`` included. A model of one job's own is fine-tuned
    in place. Masks and metrics are checked before any job runs. Jobs on
    models of one spec whose masks first reach the same dense layer k, whose
    models hold equal layers 0..k-1 and whose configs differ at most in the
    seed run as one group (``_train_heads``). A group that fails its
    first-batch check runs again as groups of one. Losses, readings and
    parameters are the same either way."""
    groups, uses = {}, {}
    for j, (model, mask, cfg) in enumerate(zip(models, masks, cfgs)):
        selected = _check_mask(model, mask)
        metric = met.check_metric(cfg.metric, model, valid_ds)
        k, start = _first_trained_layer(model, selected)
        key = (model.spec, k, model.params.data[:start].tobytes(),
               astuple(replace(cfg, seed=0)), metric)
        groups.setdefault(key, (k, start, metric, []))[3].append((j, selected))
        uses[id(model)] = uses.get(id(model), 0) + 1
    outcomes: list = [None] * len(models)
    for k, start, metric, jobs in groups.values():
        def run(group):  # each job's outcome, or None after a failed check
            return _train_heads([models[j] for j, _ in group], [s for _, s in group], k, start,
                                train_ds, valid_ds, [cfgs[j] for j, _ in group], metric,
                                [uses[id(models[j])] == 1 for j, _ in group])

        for (j, _), outcome in zip(jobs, run(jobs) or [run([job])[0] for job in jobs]):
            outcomes[j] = outcome
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
