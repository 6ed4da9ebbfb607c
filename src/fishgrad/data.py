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
    split: str = ""

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

    def subset(self, ids, split: str = "") -> "Dataset":
        ids = np.asarray(ids, dtype=np.int64)
        texts = [self.texts[i] for i in ids] if self.texts is not None else None
        return Dataset(self.inputs[ids], self.labels[ids], self.task,
                       self.num_classes, self.token_inputs, texts,
                       split or self.split)


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


def _validate_spec(spec: SyntheticSpec) -> None:
    if spec.generator not in GENERATORS:
        raise ValueError(f"unknown generator {spec.generator!r}")
    if spec.n < 4:
        raise ValueError(f"need n >= 4, got {spec.n}")
    if spec.noise < 0:
        raise ValueError(f"noise must be >= 0, got {spec.noise}")
    if spec.dims < 1 or spec.classes < 2:
        raise ValueError(f"bad dims/classes: {spec.dims}/{spec.classes}")


def _balanced_labels(n: int, classes: int, rng) -> np.ndarray:
    # Round-robin label assignment, then a seeded shuffle: class counts stay
    # within one of each other for any n.
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    return labels


def generate(spec: SyntheticSpec) -> Dataset:
    """Build one of the synthetic tasks, bit-deterministic per seed."""
    _validate_spec(spec)
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


def split(dataset: Dataset, fractions, seed: int,
          names: tuple[str, ...] | None = None) -> list[Dataset]:
    """Seeded shuffle then partition; parts are disjoint and covering."""
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    bounds = [round(c * n) for c in np.cumsum(fractions)]
    bounds[-1] = n
    parts, start = [], 0
    for i, stop in enumerate(bounds):
        name = names[i] if names else f"part{i}"
        parts.append(dataset.subset(perm[start:stop], split=name))
        start = stop
    return parts


def train_valid_split(dataset: Dataset, valid_fraction: float = 0.2,
                      seed: int = 0) -> tuple[Dataset, Dataset]:
    train, valid = split(dataset, (1.0 - valid_fraction, valid_fraction), seed,
                         names=("train", "valid"))
    return train, valid


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


def _infer_labels(raw: list[tuple[int, str]]):
    """Classify-vs-regress from label strings; errors carry the line number.

    All labels non-negative integers -> classification; any decimal, exponent
    or negative value -> regression; non-numeric -> error.
    """
    floats, all_int = [], True
    for lineno, s in raw:
        s = s.strip()
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"line {lineno}: unknown label {s!r}") from None
        floats.append(v)
        if all_int and not (v >= 0 and v.is_integer()
                            and "." not in s and "e" not in s.lower()):
            all_int = False
    if all_int:
        labels = np.asarray(floats, dtype=np.int64)
        num_classes = max(2, int(labels.max()) + 1)
        task = "binary" if num_classes == 2 else "multiclass"
        return labels, task, num_classes
    return np.asarray(floats, dtype=np.float64), "regression", 0


def load(path, format: str | None = None, dim: int = 2048, seed: int = 0) -> Dataset:
    """Read a TSV or JSONL dataset; text pairs are joined and hash-featurized.

    Row order follows the file. Malformed rows raise with their line number.
    """
    path = str(path)
    if format is None:
        format = "jsonl" if path.endswith((".jsonl", ".json")) else "tsv"
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    rows_text, rows_feat, labels_raw = [], [], []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if format == "tsv":
        if not lines:
            raise ValueError(f"{path}: empty file")
        header = lines[0].split("\t")
        is_text = header[:1] == ["text1"]
        if is_text and header != ["text1", "text2", "label"]:
            raise ValueError(f"line 1: bad text header {header}")
        if not is_text and (header[-1] != "label"
                            or header[:-1] != [f"f{i}" for i in range(len(header) - 1)]):
            raise ValueError(f"line 1: bad header {header}")
        for lineno, line in enumerate(lines[1:], start=2):
            cols = line.split("\t")
            if len(cols) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} columns, got {len(cols)}")
            if is_text:
                rows_text.append((cols[0], cols[1]))
            else:
                try:
                    rows_feat.append([float(c) for c in cols[:-1]])
                except ValueError:
                    raise ValueError(f"line {lineno}: non-numeric feature") from None
            labels_raw.append((lineno, cols[-1]))
    else:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                raise ValueError(f"line {lineno}: invalid JSON") from None
            if set(row) == {"manifest"}:
                continue  # embedded provenance row from the CLI
            if "features" in row:
                rows_feat.append([float(v) for v in row["features"]])
            elif "text1" in row:
                rows_text.append((str(row["text1"]), str(row.get("text2", ""))))
            else:
                raise ValueError(f"line {lineno}: need 'features' or 'text1'")
            if "label" not in row:
                raise ValueError(f"line {lineno}: missing label")
            labels_raw.append((lineno, str(row["label"])))
    if not labels_raw:
        raise ValueError(f"{path}: no data rows")
    if rows_text and rows_feat:
        raise ValueError(f"{path}: mixed text and feature rows")
    labels, task, num_classes = _infer_labels(labels_raw)
    if rows_text:
        feats = np.stack([featurize_text(join_pair(a, b), dim, seed)
                          for a, b in rows_text])
        return Dataset(feats, labels, task, num_classes, texts=rows_text)
    feats = np.asarray(rows_feat, dtype=np.float64)
    widths = {len(r) for r in rows_feat}
    if len(widths) > 1:
        raise ValueError(f"{path}: inconsistent feature widths {sorted(widths)}")
    return Dataset(feats, labels, task, num_classes)


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
