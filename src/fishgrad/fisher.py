"""Diagonal squared-gradient parameter scores and sparse masks.

The per-parameter importance score is the mean over samples of the squared
log-likelihood gradient. Two estimators are provided: the ground-truth-label
form (mean of squared per-sample gradients) and the label-expectation form
(classifiers only: the inner sum runs over all classes weighted by the model's
own predictive distribution). Masks select the top-k scored parameter indices
with ties broken toward the lowest index so every selection is reproducible.

Scores are computed without forming any per-sample gradient. For a dense
layer, row i's weight gradient is the outer product of its input a_i and its
output gradient delta_i, so the squared gradients summed over rows are
(A^2)^T Delta^2 and each row's masked squared norm is a row sum of
(A^2 @ M) * Delta^2. Models that are stacks of dense layers (logreg, mlp,
linear_regressor) supply A and Delta from one untaped forward pass and one
batched backward pass (``models.DensePass``). A model without that structure
(tiny_attention) falls back to one tape pass per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad


@dataclass
class SampleSubset:
    """Ordered, unique dataset row indices, optionally with per-sample scores."""

    ids: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
            if len(self.scores) != len(self.ids):
                raise ValueError("scores must align 1:1 with ids")

    def __len__(self) -> int:
        return len(self.ids)


class SampleScore(NamedTuple):
    sample_id: int
    score: float


@dataclass
class FisherDiagonal:
    """Non-negative per-parameter scores aligned to one model snapshot."""

    values: np.ndarray
    source: str  # empirical | expectation
    sample_ids: np.ndarray
    model_hash: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        if self.source not in ("empirical", "expectation"):
            raise ValueError(f"unknown source {self.source!r}")
        if np.any(self.values < 0):
            raise ValueError("scores must be non-negative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Mask:
    """Sorted selected parameter indices at a declared sparsity."""

    selected: np.ndarray
    sparsity: float
    num_params: int
    model_hash: str | None = None
    tie_break: str = "lowest_index"

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64)
        if len(self.selected) and (np.any(np.diff(self.selected) <= 0)
                                   or self.selected[0] < 0
                                   or self.selected[-1] >= self.num_params):
            raise ValueError("selected must be strictly increasing indices < num_params")

    @property
    def size(self) -> int:
        return len(self.selected)

    def as_bool(self) -> np.ndarray:
        out = np.zeros(self.num_params, dtype=bool)
        out[self.selected] = True
        return out


def mask_size(sparsity: float, num_params: int) -> int:
    """k = max(1, round-half-up(sparsity * num_params))."""
    if not 0.0 < sparsity <= 1.0:
        raise ValueError(f"sparsity must be in (0, 1], got {sparsity}")
    return max(1, int(math.floor(sparsity * num_params + 0.5)))


def _resolve_subset(dataset, subset) -> np.ndarray:
    if subset is None:
        ids = np.arange(len(dataset), dtype=np.int64)
    elif isinstance(subset, SampleSubset):
        ids = subset.ids
    else:
        ids = np.asarray(subset, dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("sample subset is empty")
    return ids


def _span(segment) -> slice:
    return slice(segment.offset, segment.offset + segment.length)


def _factored_diagonal(num_params: int, factors, squares) -> np.ndarray:
    """Sum over rows of squared per-example gradients, from layer factors.

    ``squares`` holds one (n, fan_out) matrix S per layer: the squared
    output gradients, or their class-weighted sum. Row i's weight gradient
    is outer(a_i, delta_i), so the weight block sums to (A^2)^T S and the
    bias block to the column sums of S; no (n x P) matrix is formed.
    """
    values = np.zeros(num_params, dtype=np.float64)
    for f, sq in zip(factors, squares):
        values[_span(f.weight)] = ((f.inputs ** 2).T @ sq).ravel()
        values[_span(f.bias)] = sq.sum(axis=0)
    return values


def _masked_row_squares(f, keep: np.ndarray) -> np.ndarray:
    """Each row's squared gradient on one dense layer, summed over the kept
    coordinates: rows of (A^2 @ M) * Delta^2 plus Delta^2 @ m_b."""
    a2, sq = f.inputs ** 2, f.grads ** 2
    m = keep[_span(f.weight)].reshape(a2.shape[1], sq.shape[1]).astype(np.float64)
    # Contract the mask with the narrower side, so no (n x wider side)
    # product is formed next to the squares.
    if a2.shape[1] < sq.shape[1]:
        rows = (a2 * (sq @ m.T)).sum(axis=1)
    else:
        rows = ((a2 @ m) * sq).sum(axis=1)
    return rows + sq @ keep[_span(f.bias)].astype(np.float64)


def _tape_squares(model, X, y):
    """Squared log-likelihood gradient of each row from its own tape pass:
    the path for models without dense-layer factors (tiny_attention)."""
    for i in range(len(X)):
        g = ad.log_prob_gradient(model, X[i:i + 1], y[i:i + 1])
        yield g * g


def empirical_fisher(model, dataset, subset=None) -> FisherDiagonal:
    """Mean of squared per-sample log-likelihood gradients at ground-truth labels."""
    ids = _resolve_subset(dataset, subset)
    X, y = dataset.inputs[ids], dataset.labels[ids]
    dense = model.dense_pass(X)
    if dense is None:
        total = np.zeros(model.num_params, dtype=np.float64)
        for sq in _tape_squares(model, X, y):
            total += sq
    else:
        factors = dense.factors(y)
        total = _factored_diagonal(model.num_params, factors,
                                   (f.grads ** 2 for f in factors))
    return FisherDiagonal(total / len(ids), "empirical", ids, model.content_hash())


def expectation_fisher(model, dataset, subset=None) -> FisherDiagonal:
    """Label-expectation form: inner sum over classes under the model's own
    predictive distribution. Classifiers only; a continuous-output model has
    no finite class set to sum over."""
    if not model.is_classifier:
        raise ValueError("expectation_fisher needs a classifier (finite class set)")
    ids = _resolve_subset(dataset, subset)
    X = dataset.inputs[ids]
    n = len(ids)
    dense = model.dense_pass(X)
    if dense is None:
        probs = np.exp([model.log_probs(x) for x in X])
        total = np.zeros(model.num_params, dtype=np.float64)
        for cls in range(model.num_classes):
            for p, sq in zip(probs[:, cls], _tape_squares(model, X, np.full(n, cls))):
                total += p * sq
    else:
        squares = None
        for cls in range(model.num_classes):
            factors = dense.factors(np.full(n, cls))
            weighted = [dense.probs[:, cls:cls + 1] * f.grads ** 2 for f in factors]
            squares = weighted if squares is None else [
                acc + w for acc, w in zip(squares, weighted)]
        total = _factored_diagonal(model.num_params, factors, squares)
    return FisherDiagonal(total / n, "expectation", ids, model.content_hash())


def sample_scores(model, dataset, subset=None, restrict: Mask | None = None) -> list[SampleScore]:
    """Squared gradient norm per sample, optionally summed only over a mask.

    This is the scalar used to rank samples: the sample's additive
    contribution to the diagonal score total. For a dense layer the masked
    sum of row i's squared weight gradient is sum_jk M_jk a_ij^2 delta_ik^2,
    where M is the layer's block of the mask (all ones when unrestricted).
    """
    ids = _resolve_subset(dataset, subset)
    X, y = dataset.inputs[ids], dataset.labels[ids]
    keep = (restrict.as_bool() if restrict is not None
            else np.ones(model.num_params, dtype=bool))
    dense = model.dense_pass(X)
    if dense is None:
        scores = [float(sq[keep].sum()) for sq in _tape_squares(model, X, y)]
    else:
        scores = np.zeros(len(ids), dtype=np.float64)
        for f in dense.factors(y):
            scores += _masked_row_squares(f, keep)
    return [SampleScore(int(i), float(s)) for i, s in zip(ids, scores)]


def top_k_mask(fisher: FisherDiagonal, sparsity: float | None = None,
               k: int | None = None, model_hash: str | None = None) -> Mask:
    """Select the k highest-scored parameter indices (lowest index wins ties)."""
    n = len(fisher.values)
    if k is None:
        if sparsity is None:
            raise ValueError("need sparsity or k")
        k = mask_size(sparsity, n)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # Stable sort on descending score keeps lower indices first among ties.
    order = np.argsort(-fisher.values, kind="stable")
    selected = np.sort(order[:k])
    return Mask(selected, sparsity if sparsity is not None else k / n, n,
                model_hash or fisher.model_hash)


def top_k_within(fisher_values: np.ndarray, candidates: np.ndarray, k: int,
                 keep_largest: bool = True) -> np.ndarray:
    """Rank only ``candidates`` by score and keep k of them, sorted ascending.

    ``keep_largest=False`` keeps the k lowest-scored candidates instead; the
    two calls partition the candidate set for complementary-half searches.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    if not 0 <= k <= len(cand):
        raise ValueError(f"k must be in [0, {len(cand)}], got {k}")
    order = cand[np.argsort(-fisher_values[cand], kind="stable")]
    kept = order[:k] if keep_largest else order[len(cand) - k:]
    return np.sort(kept)


def random_mask(num_params: int, sparsity: float, seed: int) -> Mask:
    """Uniform without-replacement baseline mask, deterministic per seed."""
    k = mask_size(sparsity, num_params)
    rng = np.random.default_rng(seed)
    selected = np.sort(rng.choice(num_params, size=k, replace=False))
    return Mask(selected, sparsity, num_params)


# ---- JSON persistence -----------------------------------------------------


def fisher_to_json(f: FisherDiagonal) -> dict:
    return {"model_hash": f.model_hash, "source": f.source,
            "sample_ids": f.sample_ids.tolist(), "values": f.values.tolist()}


def fisher_from_json(d: dict) -> FisherDiagonal:
    return FisherDiagonal(np.asarray(d["values"]), d["source"],
                          np.asarray(d["sample_ids"]), d["model_hash"])


def mask_to_json(m: Mask) -> dict:
    return {"model_hash": m.model_hash, "sparsity": m.sparsity,
            "num_params": m.num_params, "selected": m.selected.tolist()}


def mask_from_json(d: dict) -> Mask:
    return Mask(np.asarray(d["selected"]), d["sparsity"], d["num_params"],
                d.get("model_hash"))
