"""Diagonal squared-gradient parameter scores and sparse masks.

The per-parameter importance score is the mean over samples of the squared
log-likelihood gradient. Two estimators are provided: the ground-truth-label
form (mean of squared per-sample gradients) and the label-expectation form
(classifiers only: the inner sum runs over all classes weighted by the model's
own predictive distribution). Masks, like the search's sample halvings, keep
the top-k scored indices (``top_k_within``) with ties broken toward the
lowest index so every selection is reproducible. The selection takes linear
time: ``np.partition`` finds the k-th score, every higher score is kept, and
the lowest indices among the scores equal to it fill the rest, which is the
stable sort's tie rule without the sort.

All three scorers reduce one primitive, each row's squared gradient as
per-layer blocks (``_squared_blocks``). For a dense layer, row i's weight
gradient is the outer product of its input a_i and its output gradient
delta_i, so the squared gradients summed over rows are (A^2)^T Delta^2 and
row i's squared norm over the layer's weights and bias is
|delta_i|^2 (|a_i|^2 + 1). The model's pass (``Model.run``) supplies A and
Delta: stacks of dense layers (logreg, mlp, linear_regressor) from one
batched pass (``models.DensePass``), forming no per-sample gradient, and
tiny_attention (``models.TapePass``) as one block of per-row tape gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._check import integer, real


@dataclass
class SampleSubset:
    """Ordered, unique dataset row indices."""

    ids: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")

    def __len__(self) -> int:
        return len(self.ids)


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

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64)
        if len(self.selected) and (np.any(np.diff(self.selected) <= 0)
                                   or self.selected[0] < 0
                                   or self.selected[-1] >= self.num_params):
            raise ValueError("selected must be strictly increasing indices < num_params")

    @property
    def size(self) -> int:
        return len(self.selected)


def mask_size(sparsity: float, num_params: int) -> int:
    """k = max(1, round-half-up(sparsity * num_params))."""
    real("sparsity", sparsity, "(0, 1]")
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


def _squared_blocks(model, X, y=None) -> list[tuple]:
    """Each row's squared log-likelihood gradient at labels ``y`` (or, with
    ``y=None``, summed over the classes weighted by the model's predictive
    probabilities) as per-layer blocks (weight span, bias span or None, A^2,
    S): row i's share is outer(A^2[i], S[i]) on the weight span and S[i] on
    the bias span. A dense stack gives one block per layer; tiny_attention
    gives one block over the whole vector, with a column of ones as A.
    """
    run = model.run(X)
    total = None
    for cls in [None] if y is not None else range(model.num_classes):
        labels = y if cls is None else np.full(len(X), cls)
        layers = run.factors(model.check_labels(labels))
        p = None if cls is None else run.probs[:, cls]
        squares = [g ** 2 if cls is None else p[:, None] * g ** 2 for *_, g in layers]
        total = squares if total is None else [acc + s for acc, s in zip(total, squares)]
    return [(w, b, a ** 2, sq) for (w, b, a, _), sq in zip(layers, total)]


def _diagonal(model, blocks) -> np.ndarray:
    """Sum over rows of the squared gradients: (A^2)^T S on a weight span,
    the column sums of S on a bias span; no (n x P) matrix is formed."""
    values = np.zeros(model.num_params, dtype=np.float64)
    for weight, bias, a2, sq in blocks:
        values[weight] = (a2.T @ sq).ravel()
        if bias is not None:
            values[bias] = sq.sum(axis=0)
    return values


def empirical_fisher(model, dataset, subset=None) -> FisherDiagonal:
    """Mean of squared per-sample log-likelihood gradients at ground-truth labels."""
    ids = _resolve_subset(dataset, subset)
    blocks = _squared_blocks(model, dataset.inputs[ids], dataset.labels[ids])
    return FisherDiagonal(_diagonal(model, blocks) / len(ids), "empirical", ids,
                          model.content_hash())


def expectation_fisher(model, dataset, subset=None) -> FisherDiagonal:
    """Label-expectation form: inner sum over classes under the model's own
    predictive distribution. Classifiers only; a continuous-output model has
    no finite class set to sum over."""
    if not model.is_classifier:
        raise ValueError("expectation_fisher needs a classifier (finite class set)")
    ids = _resolve_subset(dataset, subset)
    blocks = _squared_blocks(model, dataset.inputs[ids])
    return FisherDiagonal(_diagonal(model, blocks) / len(ids), "expectation", ids,
                          model.content_hash())


def sample_scores(model, dataset, subset=None) -> np.ndarray:
    """Squared gradient norm per sample, aligned with the subset's ids.

    This is the scalar used to rank samples: the sample's additive
    contribution to the diagonal score total. On a block, row i's sum of
    a_ij^2 s_ik over the weights factors as (sum_j a_ij^2)(sum_k s_ik); the
    bias adds sum_k s_ik once more.
    """
    ids = _resolve_subset(dataset, subset)
    scores = np.zeros(len(ids), dtype=np.float64)
    for _, bias, a2, sq in _squared_blocks(model, dataset.inputs[ids], dataset.labels[ids]):
        scores += sq.sum(axis=1) * (a2.sum(axis=1) + (bias is not None))
    return scores


def top_k_mask(fisher: FisherDiagonal, sparsity: float | None = None,
               k: int | None = None) -> Mask:
    """Select the k highest-scored parameter indices (lowest index wins ties),
    k given directly or as a ``sparsity`` fraction: exactly one of the two."""
    n = len(fisher.values)
    if (sparsity is None) == (k is None):
        raise ValueError(f"need sparsity or k, not both or neither: got {sparsity}, {k}")
    if k is None:
        k = mask_size(sparsity, n)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return Mask(top_k_within(fisher.values, np.arange(n), k),
                sparsity if sparsity is not None else k / n, n, fisher.model_hash)


def top_k_within(fisher_values: np.ndarray, candidates: np.ndarray, k: int,
                 keep_largest: bool = True) -> np.ndarray:
    """Rank only ``candidates`` by score and keep k of them, sorted ascending.

    The order is a stable sort on descending score (earlier candidates first
    among ties, NaN last), taken in linear time unless a score is NaN.
    ``keep_largest=False`` keeps the last k of that order instead; the two
    calls partition the candidate set for complementary-half searches.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    if not 0 <= k <= len(cand):
        raise ValueError(f"k must be in [0, {len(cand)}], got {k}")
    scores, top = fisher_values[cand], k if keep_largest else len(cand) - k
    first = np.zeros(len(cand), dtype=bool)  # the first ``top`` of the stable order
    if np.isnan(scores).any():
        first[np.argsort(-scores, kind="stable")[:top]] = True
    elif top:
        bound = np.partition(scores, len(cand) - top)[len(cand) - top]
        first = scores > bound
        first[np.flatnonzero(scores == bound)[:top - np.count_nonzero(first)]] = True
    return np.sort(cand[first if keep_largest else ~first])


def random_mask(num_params: int, sparsity: float, seed: int) -> Mask:
    """Uniform without-replacement baseline mask, deterministic per seed."""
    k = mask_size(sparsity, integer("num_params", num_params, 1))
    rng = np.random.default_rng(seed)
    selected = np.sort(rng.choice(num_params, size=k, replace=False))
    return Mask(selected, sparsity, num_params)


# ---- JSON persistence -----------------------------------------------------


def fisher_to_json(f: FisherDiagonal) -> dict:
    return {"model_hash": f.model_hash, "source": f.source,
            "sample_ids": f.sample_ids.tolist(), "values": f.values.tolist()}


# The keys each reader below takes from a file, for ``fileio.read_result``.
FISHER_KEYS = {"values": ["a number"], "source": "a string", "sample_ids": ["an integer"],
               "model_hash": None}


def fisher_from_json(d: dict) -> FisherDiagonal:
    return FisherDiagonal(np.asarray(d["values"]), d["source"],
                          np.asarray(d["sample_ids"]), d["model_hash"])


def mask_to_json(m: Mask) -> dict:
    return {"model_hash": m.model_hash, "sparsity": m.sparsity,
            "num_params": m.num_params, "selected": m.selected.tolist()}


MASK_KEYS = {"selected": ["an integer"], "sparsity": "a number", "num_params": "an integer"}


def mask_from_json(d: dict) -> Mask:
    return Mask(np.asarray(d["selected"]), d["sparsity"], d["num_params"],
                d.get("model_hash"))
