"""Dataset loading, hashing featurization, splits, and synthetic generators.

Rows are either dense float feature vectors, token-id sequences, or raw text
pairs hashed into a fixed-width bag-of-words. Everything is seeded and
bit-deterministic so downstream scores are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._check import integer, real
from .fileio import write_atomic

TASKS = ("binary", "multiclass", "regression")
GENERATORS = ("gaussian_blobs", "xor_ring", "linear_regression", "token_topic")
SEP = "[SEP]"


@dataclass
class Dataset:
    """Row-aligned inputs and labels for one task.

    ``inputs`` is (n, d) float64 features or (n, t) int64 token ids
    (``token_inputs`` distinguishes them). Classification labels are int64 in
    [0, num_classes); regression labels are float64.
    """

    inputs: np.ndarray
    labels: np.ndarray
    task: str
    num_classes: int = 0
    token_inputs: bool = False
    texts: list[tuple[str, str]] | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        self.inputs = np.asarray(self.inputs)
        if self.task == "regression":
            self.labels = np.asarray(self.labels, dtype=np.float64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) and (self.labels.min() < 0
                                     or self.labels.max() >= self.num_classes):
                raise ValueError(f"labels outside [0, {self.num_classes})")
        if len(self.inputs) != len(self.labels):
            raise ValueError(f"{len(self.inputs)} rows vs {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, ids) -> "Dataset":
        ids = np.asarray(ids, dtype=np.int64)
        texts = [self.texts[i] for i in ids] if self.texts is not None else None
        return Dataset(self.inputs[ids], self.labels[ids], self.task,
                       self.num_classes, self.token_inputs, texts)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic task."""

    generator: str
    n: int
    dims: int = 2
    classes: int = 2
    noise: float = 0.1
    seed: int = 0
    vocab: int = 64      # token_topic only
    seq_len: int = 8     # token_topic only

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        for name, least in (("n", 4), ("dims", 1), ("classes", 2), ("seed", 0),
                            ("vocab", 1), ("seq_len", 1)):
            integer(name, getattr(self, name), least)
        real("noise", self.noise, "[0, inf)")


def _balanced_labels(n: int, classes: int, rng) -> np.ndarray:
    # Round-robin label assignment, then a seeded shuffle: class counts stay
    # within one of each other for any n.
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    return labels


def generate(spec: SyntheticSpec) -> Dataset:
    """Build one of the synthetic tasks, bit-deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.generator == "gaussian_blobs":
        # Class means sit on a radius-2 sphere; isotropic Gaussian noise.
        dirs = rng.normal(size=(spec.classes, spec.dims))
        means = 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        labels = _balanced_labels(spec.n, spec.classes, rng)
        X = means[labels] + spec.noise * rng.normal(size=(spec.n, spec.dims))
        task = "binary" if spec.classes == 2 else "multiclass"
        return Dataset(X, labels, task, spec.classes)
    if spec.generator == "xor_ring":
        # Two informative dims in a four-quadrant XOR layout; the rest noise.
        labels = _balanced_labels(spec.n, 2, rng)
        quad = rng.integers(0, 2, size=spec.n)
        s0 = np.where(quad == 0, 1.0, -1.0)
        s1 = np.where((quad == 0) == (labels == 0), 1.0, -1.0)
        X = spec.noise * rng.normal(size=(spec.n, spec.dims))
        X[:, 0] += s0
        X[:, 1 % spec.dims] += s1
        return Dataset(X, labels, "binary", 2)
    if spec.generator == "linear_regression":
        w = rng.normal(size=spec.dims) / math.sqrt(spec.dims)
        X = rng.normal(size=(spec.n, spec.dims))
        y = X @ w + spec.noise * rng.normal(size=spec.n)
        return Dataset(X, y, "regression")
    # token_topic: each class owns a slice of the vocabulary; sequences mix
    # topic tokens with shared tokens so order and identity both matter.
    labels = _balanced_labels(spec.n, spec.classes, rng)
    shared = max(2, spec.vocab // 4)
    per_class = (spec.vocab - shared) // spec.classes
    if per_class < 1:
        raise ValueError("vocab too small for the requested class count")
    ids = np.empty((spec.n, spec.seq_len), dtype=np.int64)
    for i in range(spec.n):
        topical = rng.random(spec.seq_len) < 0.7
        lo = shared + labels[i] * per_class
        ids[i] = np.where(topical,
                          rng.integers(lo, lo + per_class, size=spec.seq_len),
                          rng.integers(0, shared, size=spec.seq_len))
    task = "binary" if spec.classes == 2 else "multiclass"
    return Dataset(ids, labels, task, spec.classes, token_inputs=True)


def split(dataset: Dataset, fractions, seed: int) -> list[Dataset]:
    """Seeded shuffle then partition; parts are disjoint and covering."""
    fractions = [float(real("fractions", f, "(0, 1]")) for f in fractions]
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    bounds = [round(c * n) for c in np.cumsum(fractions)]
    bounds[-1] = n
    parts = [perm[start:stop] for start, stop in zip([0, *bounds], bounds)]
    if min(map(len, parts)) == 0:
        raise ValueError(f"fractions {fractions} leave a part of the {n} rows empty")
    return [dataset.subset(ids) for ids in parts]


def train_valid_split(dataset: Dataset, valid_fraction: float = 0.2,
                      seed: int = 0) -> tuple[Dataset, Dataset]:
    real("valid_fraction", valid_fraction, "(0, 1)")
    try:
        return tuple(split(dataset, (1.0 - valid_fraction, valid_fraction), seed))
    except ValueError as exc:  # a part left empty: name the setting that did it
        raise ValueError(f"valid_fraction {valid_fraction}: {exc}") from None


# ---------------------------------------------------------------------------
# Text featurization: stable hashed bag of words.
# ---------------------------------------------------------------------------


def _token_bucket(token: str, dim: int, seed: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                             key=seed.to_bytes(8, "little", signed=False)).digest()
    return int.from_bytes(digest, "little") % dim


def featurize_text(text: str, dim: int = 2048, seed: int = 0) -> np.ndarray:
    """Lowercased whitespace tokens hashed into ``dim`` buckets, counts
    L2-normalized. Empty text maps to the zero vector."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        vec[_token_bucket(token, dim, seed)] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def join_pair(text1: str, text2: str) -> str:
    return f"{text1} {SEP} {text2}" if text2 else text1


# ---------------------------------------------------------------------------
# File I/O. TSV columns: text1/text2/label or f0..fD/label. JSONL rows:
# {"text1","text2","label"} or {"features","label"}.
# ---------------------------------------------------------------------------


def _infer_labels(raw: list[tuple[int, str]], path: str):
    """Classify-vs-regress from label strings; errors name the path and line.

    All labels non-negative integers -> classification; any decimal, exponent
    or negative value -> regression; non-numeric or non-finite (NaN, or
    beyond float64's range) -> error. A class label must be below the row
    count, which bounds the head's size before any array is made.
    """
    floats, all_int = [], True
    for lineno, s in raw:
        s = s.strip()
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unknown label {s!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}: line {lineno}: label {s} is not a finite float64")
        floats.append(v)
        if all_int and not (v >= 0 and v.is_integer()
                            and "." not in s and "e" not in s.lower()):
            all_int = False
    if all_int:
        beyond = np.flatnonzero(np.asarray(floats) >= len(raw))
        if len(beyond):
            lineno, label = raw[beyond[0]]
            raise ValueError(f"{path}: line {lineno}: label {label.strip()} must be below "
                             f"the row count, {len(raw)}")
        labels = np.asarray(floats, dtype=np.int64)
        num_classes = max(2, int(labels.max()) + 1)
        task = "binary" if num_classes == 2 else "multiclass"
        return labels, task, num_classes
    return np.asarray(floats, dtype=np.float64), "regression", 0


def load(path, dim: int = 2048, seed: int = 0) -> Dataset:
    """Read a JSONL (``.jsonl`` or ``.json``) or else TSV dataset; text pairs
    are joined and hash-featurized.

    Row order follows the file. Every error starts with the path, and a
    malformed row's error also names its line.
    """
    path = str(path)
    rows_text, rows_feat, feat_lines, labels_raw = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not path.endswith((".jsonl", ".json")):
        if not lines:
            raise ValueError(f"{path}: empty file")
        header = lines[0].split("\t")
        is_text = header[:1] == ["text1"]
        if is_text and header != ["text1", "text2", "label"]:
            raise ValueError(f"{path}: line 1: bad text header {header}")
        if not is_text and (header[-1] != "label"
                            or header[:-1] != [f"f{i}" for i in range(len(header) - 1)]):
            raise ValueError(f"{path}: line 1: bad header {header}")
        for lineno, line in enumerate(lines[1:], start=2):
            cols = line.split("\t")
            if len(cols) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} columns, "
                                 f"got {len(cols)}")
            if is_text:
                rows_text.append((cols[0], cols[1]))
            else:
                try:
                    rows_feat.append([float(c) for c in cols[:-1]])
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric feature") from None
                feat_lines.append(lineno)
            labels_raw.append((lineno, cols[-1]))
    else:
        try:
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    raise ValueError(f"{path}: line {lineno}: invalid JSON") from None
                if not isinstance(row, dict):
                    raise ValueError(f"{path}: line {lineno}: a row must be a JSON object")
                if set(row) == {"manifest"}:
                    continue  # embedded provenance row from the CLI
                if "features" in row:
                    rows_feat.append(row["features"])
                    feat_lines.append(lineno)
                elif "text1" in row:
                    rows_text.append((str(row["text1"]), str(row.get("text2", ""))))
                else:
                    raise ValueError(f"{path}: line {lineno}: need 'features' or 'text1'")
                if "label" not in row:
                    raise ValueError(f"{path}: line {lineno}: missing label")
                labels_raw.append((lineno, str(row["label"])))
        except ValueError:
            _feature_array(path, rows_feat, feat_lines)  # an earlier bad row comes first
            raise
    inputs = _feature_array(path, rows_feat, feat_lines) if rows_feat else None
    if not labels_raw:
        raise ValueError(f"{path}: no data rows")
    if rows_text and rows_feat:
        raise ValueError(f"{path}: mixed text and feature rows")
    labels, task, num_classes = _infer_labels(labels_raw, path)
    if rows_text:
        feats = np.stack([featurize_text(join_pair(a, b), dim, seed)
                          for a, b in rows_text])
        return Dataset(feats, labels, task, num_classes, texts=rows_text)
    return Dataset(inputs, labels, task, num_classes)


def _feature_array(path: str, rows: list, lines: list[int]) -> np.ndarray:
    """The feature lists as one float64 array, their types and lengths checked
    in bulk; only a bad file is scanned row by row, for the first bad line."""
    if ({type(r) for r in rows} == {list} and len({len(r) for r in rows}) == 1
            and {type(v) for r in rows for v in r} <= {int, float}):
        try:
            return np.array(rows, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond float64's range: the scan names its line
    for lineno, feats in zip(lines, rows):
        if not isinstance(feats, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in feats):
            raise ValueError(f"{path}: line {lineno}: features must be a list of numbers")
        if len(feats) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno}: {len(feats)} features, "
                             f"the first row has {len(rows[0])}")
        try:
            np.array(feats, dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{path}: line {lineno}: a feature is too large for a float64") from None


def save(dataset: Dataset, path, format: str = "jsonl", manifest: dict | None = None) -> None:
    """Write a dataset back out in one of the loadable formats; the text is
    built whole first, so a failed save leaves any previous file as it was."""
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format {format!r}")
    if dataset.token_inputs:
        raise ValueError("token datasets have no on-disk format; save features or text")
    labels = dataset.labels
    lines = []
    if format == "jsonl":
        if manifest is not None:
            lines.append(json.dumps({"manifest": manifest}, sort_keys=True))
        for i in range(len(dataset)):
            if dataset.texts is not None:
                row = {"text1": dataset.texts[i][0], "text2": dataset.texts[i][1],
                       "label": _plain(labels[i])}
            else:
                row = {"features": [float(v) for v in dataset.inputs[i]],
                       "label": _plain(labels[i])}
            lines.append(json.dumps(row))
    elif dataset.texts is not None:
        lines.append("text1\ttext2\tlabel")
        for i in range(len(dataset)):
            lines.append("\t".join([*dataset.texts[i], str(_plain(labels[i]))]))
    else:
        lines.append("\t".join([f"f{i}" for i in range(dataset.dim)] + ["label"]))
        for i in range(len(dataset)):
            vals = [repr(float(v)) for v in dataset.inputs[i]]
            lines.append("\t".join(vals + [str(_plain(labels[i]))]))
    write_atomic(path, "".join(line + "\n" for line in lines))


def _plain(v):
    return int(v) if isinstance(v, (np.integer, int)) else float(v)
