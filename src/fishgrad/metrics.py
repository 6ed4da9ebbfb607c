"""Evaluation metrics and the model scoring entry point.

Conventions are pinned for determinism: Matthews correlation returns 0.0
whenever a confusion-matrix factor is zero, F1 returns 0.0 on the 0/0 case,
argmax prediction ties resolve to the lowest class index, and regression
tasks score as the mean of the Pearson and rank correlations so every task
yields a single comparable scalar.
"""

from __future__ import annotations

import math

import numpy as np

METRICS = ("accuracy", "mcc", "f1", "combined", "pearson", "spearman",
           "pearson_spearman_mean")


def _paired(preds, labels):
    p = np.asarray(preds)
    l = np.asarray(labels)
    if len(p) != len(l):
        raise ValueError(f"length mismatch: {len(p)} preds vs {len(l)} labels")
    if len(p) == 0:
        raise ValueError("empty input")
    return p, l


def _binary(preds, labels):
    p, l = _paired(preds, labels)
    values = set(np.unique(p)) | set(np.unique(l))
    if not values <= {0, 1}:
        raise ValueError(f"binary metric got labels {sorted(int(v) for v in values)}")
    return p.astype(np.int64), l.astype(np.int64)


def confusion(preds, labels) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) with class 1 positive."""
    p, l = _binary(preds, labels)
    tp = int(np.sum((p == 1) & (l == 1)))
    tn = int(np.sum((p == 0) & (l == 0)))
    fp = int(np.sum((p == 1) & (l == 0)))
    fn = int(np.sum((p == 0) & (l == 1)))
    return tp, tn, fp, fn


def accuracy(preds, labels) -> float:
    p, l = _paired(preds, labels)
    return float(np.mean(p == l))


def mcc(preds, labels) -> float:
    """Matthews correlation; 0.0 when any denominator factor vanishes."""
    tp, tn, fp, fn = confusion(preds, labels)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def f1(preds, labels) -> float:
    """F1 with positive class 1; 0.0 when there are no positives anywhere."""
    tp, tn, fp, fn = confusion(preds, labels)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def combined_score(preds, labels) -> float:
    """(F1 + accuracy) / 2 for binary tasks."""
    return (f1(preds, labels) + accuracy(preds, labels)) / 2.0


class UndefinedMetric(ValueError):
    """The metric has no value on these predictions, such as a correlation
    with constant predictions."""


def _check_correlation_input(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("correlation needs at least 2 points")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise UndefinedMetric("correlation undefined for a constant vector")
    return x, y


def pearson(x, y) -> float:
    x, y = _check_correlation_input(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    sv = v[order]
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x, y = _check_correlation_input(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


def pearson_spearman_mean(x, y) -> float:
    return (pearson(x, y) + spearman(x, y)) / 2.0


_FUNCS = {
    "accuracy": accuracy,
    "mcc": mcc,
    "f1": f1,
    "combined": combined_score,
    "pearson": pearson,
    "spearman": spearman,
    "pearson_spearman_mean": pearson_spearman_mean,
}

_REGRESSION_METRICS = {"pearson", "spearman", "pearson_spearman_mean"}
_BINARY_METRICS = {"mcc", "f1", "combined"}


def default_metric(task: str) -> str:
    return "pearson_spearman_mean" if task == "regression" else "accuracy"


def check_metric(metric: str, model, dataset) -> str:
    """The metric's name, with ``"auto"`` resolved for ``dataset``'s task.

    Raises ValueError for an unknown metric, one that does not fit the
    model's head (a regression metric on a classifier or the reverse, or a
    binary metric on more than two classes), or a correlation metric on
    constant labels.
    """
    if metric == "auto":
        metric = default_metric(dataset.task)
    if metric not in _FUNCS:
        raise ValueError(f"unknown metric {metric!r}")
    regression_metric = metric in _REGRESSION_METRICS
    if regression_metric == model.is_classifier:
        raise ValueError(f"metric {metric!r} incompatible with "
                         f"{'classifier' if model.is_classifier else 'regressor'} head")
    if metric in _BINARY_METRICS and model.num_classes > 2:
        raise ValueError(f"metric {metric!r} needs a binary head, "
                         f"the model has {model.num_classes} classes")
    if regression_metric and np.ptp(dataset.labels) == 0:
        raise ValueError(f"metric {metric!r} is undefined on constant labels")
    return metric


def score(metric: str, model, dataset) -> float:
    """Run inference on ``dataset`` and apply the named metric.

    Classifier metrics compare argmax predictions against integer labels
    (ties to the lowest class); regression metrics correlate real-valued
    predictions with the targets.
    """
    metric = check_metric(metric, model, dataset)
    return evaluate(metric, model.predictions(dataset.inputs), dataset.labels)


def evaluate(metric: str, preds, labels) -> float:
    """The named metric (not ``"auto"``) of predictions against labels."""
    return _FUNCS[metric](preds, labels)
