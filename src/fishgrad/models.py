"""Desk-scale differentiable models over a flat, segment-addressed parameter
vector.

Four kinds are provided: a softmax linear classifier (``logreg``), a
tanh MLP (``mlp``), a one-block single-head attention classifier over token
ids (``tiny_attention``), and a scalar linear regressor
(``linear_regressor``). Classifiers expose log p(y|x) through a log-softmax
head; the regressor's log-likelihood is the unit-variance Gaussian
-(f(x)-y)^2/2 so that squared-gradient scores are well defined for
regression tasks too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, replace
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .fileio import write_atomic


class Segment:
    """Named contiguous slice of the flat parameter vector."""

    __slots__ = ("name", "offset", "shape", "length")

    def __init__(self, name: str, offset: int, shape: tuple[int, ...]):
        self.name = name
        self.offset = offset
        self.shape = tuple(shape)
        self.length = math.prod(self.shape)

    def __repr__(self) -> str:
        return f"Segment({self.name!r}, offset={self.offset}, shape={self.shape})"


class ParamVector:
    """Flat float64 parameter storage with a (name, offset, shape) table.

    Segments partition [0, len) with no gaps or overlaps; the flat-index to
    (segment, position) mapping is a stable bijection for the life of the
    model. ``data`` is storage to use in place of fresh zeros, such as a view
    of another vector's tail.
    """

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]],
                 data: np.ndarray | None = None):
        self.segments: list[Segment] = []
        offset = 0
        seen = set()
        for name, shape in layout:
            if name in seen:
                raise ValueError(f"duplicate segment name {name!r}")
            seen.add(name)
            seg = Segment(name, offset, shape)
            self.segments.append(seg)
            offset += seg.length
        if data is not None and data.shape != (offset,):
            raise ValueError(f"layout needs {offset} values, storage has {data.shape}")
        self.data = np.zeros(offset, dtype=np.float64) if data is None else data
        self._by_name = {s.name: s for s in self.segments}

    def __len__(self) -> int:
        return len(self.data)

    def view(self, name: str) -> np.ndarray:
        """Writable reshaped view of one segment (shares storage)."""
        seg = self._by_name[name]
        return self.data[seg.offset:seg.offset + seg.length].reshape(seg.shape)

    def segment(self, name: str) -> Segment:
        return self._by_name[name]

    def locate(self, flat_index: int) -> tuple[str, int]:
        """Map a flat index to (segment name, position within segment)."""
        if not 0 <= flat_index < len(self.data):
            raise IndexError(f"flat index {flat_index} out of range")
        for seg in self.segments:
            if flat_index < seg.offset + seg.length:
                return seg.name, flat_index - seg.offset
        raise AssertionError("segment table does not cover the vector")

    def flat_index(self, name: str, position: int) -> int:
        seg = self._by_name[name]
        if not 0 <= position < seg.length:
            raise IndexError(f"position {position} outside segment {name!r}")
        return seg.offset + position

    def content_hash(self) -> str:
        return hashlib.sha256(self.data.astype("<f8").tobytes()).hexdigest()

    def copy(self) -> "ParamVector":
        out = ParamVector([(s.name, s.shape) for s in self.segments])
        out.data[:] = self.data
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + init seed. ``num_classes=0`` marks a scalar-output
    regressor; ``input_dim`` is the vocabulary size for ``tiny_attention``
    and the feature dimension otherwise."""

    kind: str  # logreg | mlp | tiny_attention | linear_regressor
    input_dim: int
    hidden: tuple[int, ...] = ()
    num_classes: int = 2
    seed: int = 0
    embed_dim: int = 16
    max_len: int = 16
    activation: str = "tanh"  # mlp / attention FFN nonlinearity

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        d = dict(d)
        d["hidden"] = tuple(d.get("hidden", ()))
        return ModelSpec(**d)


KINDS = ("logreg", "mlp", "tiny_attention", "linear_regressor")


def _validate(spec: ModelSpec) -> None:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    if spec.input_dim <= 0:
        raise ValueError(f"input_dim must be positive, got {spec.input_dim}")
    if any(h <= 0 for h in spec.hidden):
        raise ValueError(f"hidden dims must be positive, got {spec.hidden}")
    if spec.kind == "linear_regressor":
        if spec.num_classes != 0:
            raise ValueError("linear_regressor is scalar-output; set num_classes=0")
    else:
        if spec.num_classes < 2:
            raise ValueError(f"classifiers need num_classes >= 2, got {spec.num_classes}")
    if spec.kind == "tiny_attention":
        if spec.embed_dim <= 0 or spec.embed_dim > 32:
            raise ValueError(f"embed_dim must be in (0, 32], got {spec.embed_dim}")
        if spec.max_len <= 0:
            raise ValueError(f"max_len must be positive, got {spec.max_len}")
    if spec.activation not in ("tanh", "relu"):
        raise ValueError(f"unknown activation {spec.activation!r}")


def _init(params: ParamVector, fan_in: dict[str, int], seed: int) -> None:
    # Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] per segment, drawn in segment
    # order from one generator so rebuilds are bit-identical.
    rng = np.random.default_rng(seed)
    for seg in params.segments:
        bound = 1.0 / math.sqrt(fan_in[seg.name])
        params.view(seg.name)[...] = rng.uniform(-bound, bound, size=seg.shape)


class Model:
    """Shared surface: flat params, batched forward, scalar log-lik / loss."""

    is_classifier = True

    def __init__(self, spec: ModelSpec, params: ParamVector):
        self.spec = spec
        self.params = params

    @property
    def num_params(self) -> int:
        return len(self.params)

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def content_hash(self) -> str:
        return self.params.content_hash()

    def clone(self) -> "Model":
        return type(self)(self.spec, self.params.copy())

    def _activate(self, h):
        return ad.tanh(h) if self.spec.activation == "tanh" else ad.relu(h)

    def dense_layers(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) segment names of each dense layer, input side first.

        Empty for a model that is not a plain stack of dense layers; such a
        model has no per-example gradient factors.
        """
        return ()

    def dense_pass(self, X) -> "DensePass | None":
        """Untaped forward pass over a batch, kept for batched per-example
        gradients; None when the model has no dense-layer factors."""
        return DensePass(self, self._check_inputs(X)) if self.dense_layers() else None

    # -- forward protocol (subclasses implement logits_tensor or predict) --

    def logits_tensor(self, tape: ad.Tape, bound, X) -> ad.Tensor:
        raise NotImplementedError

    def log_prob_mean(self, tape: ad.Tape, X, y) -> ad.Tensor:
        """Scalar mean over the batch of log p(y_i | x_i)."""
        bound = tape.bind(self.params)
        logits = self.logits_tensor(tape, bound, self._check_inputs(X))
        return ad.scale(ad.nll(ad.log_softmax(logits), self._check_labels(y)), -1.0)

    def loss_mean(self, tape: ad.Tape, X, y) -> ad.Tensor:
        """Scalar mean cross-entropy over the batch."""
        bound = tape.bind(self.params)
        logits = self.logits_tensor(tape, bound, self._check_inputs(X))
        return ad.nll(ad.log_softmax(logits), self._check_labels(y))

    # -- plain numeric conveniences --

    def log_probs(self, x) -> np.ndarray:
        """Full log-distribution over classes for one sample."""
        tape = ad.Tape()
        bound = tape.bind(self.params)
        logits = self.logits_tensor(tape, bound, self._check_inputs(np.asarray(x)[None, :]))
        return ad.log_softmax(logits).data[0]

    def predictions(self, X) -> np.ndarray:
        """Argmax class per row; ties resolve to the lowest class index."""
        return np.argmax(self.dense_pass(X).output, axis=1)

    def _check_inputs(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if not np.all(np.isfinite(X)):
            raise ValueError(f"{self.spec.kind}: non-finite input")
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ad.ShapeMismatch(self.spec.kind,
                                   f"want (batch, {self.spec.input_dim}) inputs, got {X.shape}")
        return X

    def _check_labels(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64)
        if y.min(initial=0) < 0 or y.max(initial=0) >= self.num_classes:
            raise ValueError(f"label out of range [0, {self.num_classes}): {y}")
        return y


class LogReg(Model):
    """Softmax linear classifier: logits = X W + b."""

    @staticmethod
    def layout(spec: ModelSpec):
        d, c = spec.input_dim, spec.num_classes
        return [("W", (d, c)), ("b", (c,))], {"W": d, "b": d}

    def logits_tensor(self, tape, bound, X):
        return ad.bias_add(ad.matmul(tape.constant(X), bound["W"]), bound["b"])

    def dense_layers(self):
        return (("W", "b"),)


class MLP(Model):
    """Fully connected classifier with one or more nonlinear hidden layers."""

    @staticmethod
    def layout(spec: ModelSpec):
        dims = (spec.input_dim, *spec.hidden, spec.num_classes)
        layout, fan = [], {}
        for i in range(len(dims) - 1):
            layout += [(f"W{i}", (dims[i], dims[i + 1])), (f"b{i}", (dims[i + 1],))]
            fan[f"W{i}"] = dims[i]
            fan[f"b{i}"] = dims[i]
        return layout, fan

    def logits_tensor(self, tape, bound, X):
        h = tape.constant(X)
        n_layers = len(self.spec.hidden) + 1
        for i in range(n_layers):
            h = ad.bias_add(ad.matmul(h, bound[f"W{i}"]), bound[f"b{i}"])
            if i < n_layers - 1:
                h = self._activate(h)
        return h

    def dense_layers(self):
        return tuple((f"W{i}", f"b{i}") for i in range(len(self.spec.hidden) + 1))

    def layer_input(self, X, k: int) -> np.ndarray:
        """The input of dense layer ``k`` for each row of ``X``, or of each row
        set of a (jobs, rows, features) stack: ``DensePass``'s layers 0..k-1."""
        X = np.asarray(X, dtype=np.float64)
        a = self._check_inputs(X.reshape(-1, X.shape[-1]) if X.ndim == 3 else X).reshape(X.shape)
        for i in range(k):
            a = _dense_layer(a, self.params.view(f"W{i}"), self.params.view(f"b{i}"),
                             self.spec.activation)
        return a

    def head(self, k: int) -> "MLP":
        """Layers k.. (k >= 1) as an MLP over layer k-1's activations.

        The head's parameters are a view of this model's, so a step on the
        head updates this model. Training runs it through ``DensePass``,
        which does not check inputs: a non-finite activation flows on as in
        the full model.
        """
        spec = replace(self.spec, input_dim=self.spec.hidden[k - 1],
                       hidden=self.spec.hidden[k:])
        offset = self.params.segment(f"W{k}").offset
        return MLP(spec, ParamVector(MLP.layout(spec)[0], self.params.data[offset:]))


class TinyAttention(Model):
    """One attention block over token ids, mean-pooled into a linear head.

    Token and position embeddings are summed, passed through single-head
    scaled dot-product attention, a two-layer feed-forward, mean pooling
    over positions, then the class head. Position embeddings make the model
    order-sensitive. Inputs are (batch, seq) integer ids; sequences are
    processed one at a time on the shared tape.
    """

    @staticmethod
    def layout(spec: ModelSpec):
        v, d, c = spec.input_dim, spec.embed_dim, spec.num_classes
        h = spec.hidden[0] if spec.hidden else d
        layout = [
            ("emb", (v, d)), ("pos", (spec.max_len, d)),
            ("Wq", (d, d)), ("Wk", (d, d)), ("Wv", (d, d)),
            ("Wf1", (d, h)), ("bf1", (h,)), ("Wf2", (h, d)), ("bf2", (d,)),
            ("Wh", (d, c)), ("bh", (c,)),
        ]
        fan = {"emb": d, "pos": d, "Wq": d, "Wk": d, "Wv": d,
               "Wf1": d, "bf1": d, "Wf2": h, "bf2": h, "Wh": d, "bh": d}
        return layout, fan

    def _check_inputs(self, X) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2:
            raise ad.ShapeMismatch("tiny_attention", f"want (batch, seq) ids, got {X.shape}")
        X = X.astype(np.int64)
        if X.shape[1] > self.spec.max_len:
            raise ad.ShapeMismatch("tiny_attention",
                                   f"sequence length {X.shape[1]} > max_len {self.spec.max_len}")
        if X.min() < 0 or X.max() >= self.spec.input_dim:
            raise ValueError(f"token id out of range [0, {self.spec.input_dim})")
        return X

    def _logits_single(self, tape, bound, ids: np.ndarray) -> ad.Tensor:
        t = len(ids)
        x = ad.add(ad.embedding(bound["emb"], ids),
                   ad.embedding(bound["pos"], np.arange(t)))
        q = ad.matmul(x, bound["Wq"])
        k = ad.matmul(x, bound["Wk"])
        v = ad.matmul(x, bound["Wv"])
        att = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)),
                                  1.0 / math.sqrt(self.spec.embed_dim)))
        ctx = ad.matmul(att, v)
        f = ad.bias_add(ad.matmul(self._activate(
            ad.bias_add(ad.matmul(ctx, bound["Wf1"]), bound["bf1"])), bound["Wf2"]), bound["bf2"])
        pooled = ad.mean_rows(f)
        return ad.bias_add(ad.matmul(pooled, bound["Wh"]), bound["bh"])

    def _mean_nll(self, tape, X, y) -> ad.Tensor:
        # No stack primitive in the op set: accumulate per-sequence scalar
        # losses with add and rescale by 1/B.
        X = self._check_inputs(X)
        y = self._check_labels(y)
        bound = tape.bind(self.params)
        total = None
        for i in range(len(X)):
            term = ad.nll(ad.log_softmax(self._logits_single(tape, bound, X[i])), int(y[i]))
            total = term if total is None else ad.add(total, term)
        return ad.scale(total, 1.0 / len(X))

    def loss_mean(self, tape, X, y) -> ad.Tensor:
        return self._mean_nll(tape, X, y)

    def log_prob_mean(self, tape, X, y) -> ad.Tensor:
        return ad.scale(self._mean_nll(tape, X, y), -1.0)

    def predictions(self, X) -> np.ndarray:
        X = self._check_inputs(X)
        preds = np.empty(len(X), dtype=np.int64)
        for i in range(len(X)):
            tape = ad.Tape()
            bound = tape.bind(self.params)
            preds[i] = int(np.argmax(self._logits_single(tape, bound, X[i]).data))
        return preds

    def log_probs(self, ids) -> np.ndarray:
        tape = ad.Tape()
        bound = tape.bind(self.params)
        logits = self._logits_single(tape, bound, self._check_inputs(np.asarray(ids)[None, :])[0])
        return ad.log_softmax(logits).data


class LinearRegressor(Model):
    """Scalar linear model f(x) = x.w + b with Gaussian log-likelihood."""

    is_classifier = False

    @staticmethod
    def layout(spec: ModelSpec):
        d = spec.input_dim
        return [("w", (d,)), ("b", (1,))], {"w": d, "b": d}

    def _predict_tensor(self, tape, bound, X):
        return ad.bias_add(ad.matmul(tape.constant(X), bound["w"]), bound["b"])

    def logits_tensor(self, tape, bound, X):
        raise ValueError("linear_regressor has no class logits")

    def dense_layers(self):
        return (("w", "b"),)

    def log_prob_mean(self, tape, X, y) -> ad.Tensor:
        # Unit-variance Gaussian up to a constant fixed at 0:
        # log p = -(f(x)-y)^2 / 2, averaged over the batch.
        bound = tape.bind(self.params)
        pred = self._predict_tensor(tape, bound, self._check_inputs(X))
        return ad.scale(ad.mse(pred, np.asarray(y, dtype=np.float64)), -0.5)

    def loss_mean(self, tape, X, y) -> ad.Tensor:
        bound = tape.bind(self.params)
        pred = self._predict_tensor(tape, bound, self._check_inputs(X))
        return ad.mse(pred, np.asarray(y, dtype=np.float64))

    def predictions(self, X) -> np.ndarray:
        return self.dense_pass(X).output[:, 0]


def _dense_layer(a: np.ndarray, W: np.ndarray, b: np.ndarray,
                 activation: str | None) -> np.ndarray:
    """a W + b, then ``activation`` ("tanh", "relu", or None for an output
    layer) in place: the tape's forward rules, recorded on no tape."""
    z = a @ W
    z += b
    if activation == "tanh":
        return np.tanh(z, out=z)
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return z


class DenseFactor(NamedTuple):
    """Per-example gradient factors of one dense layer over a batch.

    Row i's gradient of log p(y_i | x_i) is outer(inputs[i], grads[i]) on the
    weight segment and grads[i] on the bias segment.
    """

    weight: Segment
    bias: Segment
    inputs: np.ndarray  # A, (n, fan_in): the layer's input
    grads: np.ndarray   # Delta, (n, fan_out): d log p(y|x) / d layer output


class DensePass:
    """One forward pass through a stack of dense layers, recorded on no tape.

    It keeps each layer's input, so one batched backward pass gives either
    the per-example factors of log p(y|x) (``factors``: Goodfellow,
    "Efficient Per-Example Gradient Computations", arXiv:1510.01799) or the
    batch gradient of the mean training loss, A^T Delta per layer
    (``loss_gradient``). The arithmetic follows the tape's forward and
    backward rules op for op, so both match the tape byte for byte.

    ``params`` may stack parameter vectors in a (jobs, parameters) block,
    with ``X`` (jobs, rows, features): every array then gains a leading job
    axis, as ``training`` uses to run several fine-tunes at once.
    """

    def __init__(self, model: Model, X: np.ndarray, params: np.ndarray | None = None):
        self.model = model
        self._names = names = model.dense_layers()
        self._tanh = model.spec.activation == "tanh"
        self._weights, self._inputs = [], []
        params = model.params.data if params is None else params
        lead = params.shape[:-1]
        a = X
        for i, (w, b) in enumerate(names):
            w, b = model.params.segment(w), model.params.segment(b)
            # The regressor's (d,) weight is one output column.
            W = params[..., w.offset:w.offset + w.length].reshape(*lead, w.shape[0], b.length)
            bias = params[..., b.offset:b.offset + b.length].reshape(*lead, 1, b.length)
            self._weights.append(W)
            self._inputs.append(a)
            a = _dense_layer(a, W, bias, model.spec.activation if i < len(names) - 1 else None)
        self.output = a

    @cached_property
    def log_probs(self) -> np.ndarray:
        """Log-softmax of a classifier's logits, as the tape computes it. The
        max, and below 8 classes the sum, run class by class: faster on a short
        class axis, and the same bytes, as numpy adds under 8 terms in order."""
        out, classes = self.output, self.output.shape[-1]
        shifted = out - reduce(np.maximum, [out[..., c] for c in range(classes)])[..., None]
        exp = np.exp(shifted)
        total = exp.sum(axis=-1) if classes >= 8 else sum(exp[..., c] for c in range(classes))
        return shifted - np.log(total)[..., None]

    @cached_property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def _backward(self, delta: np.ndarray):
        """Yield (layer index, gradient at the layer's output), output layer
        first, pulling ``delta`` back through every hidden activation."""
        for i in range(len(self._names) - 1, -1, -1):
            yield i, delta
            if i:
                # The activation's slope, read off its output: 1 - tanh^2, or
                # relu's output > 0 exactly where its input is. In-place
                # updates keep one (n x width) temporary alive, not three.
                a = self._inputs[i]
                if self._tanh:
                    slope = a * a
                    np.subtract(1.0, slope, out=slope)
                else:
                    slope = a > 0.0
                delta = delta @ np.swapaxes(self._weights[i], -1, -2)
                delta *= slope

    def factors(self, y) -> list[DenseFactor]:
        """Factors of log p(y_i | x_i) for class ids or regression targets ``y``."""
        if self.model.is_classifier:
            y = self.model._check_labels(y)
            delta = -self.probs
            delta[np.arange(len(y)), y] += 1.0
        else:
            delta = np.asarray(y, dtype=np.float64)[:, None] - self.output
        segment = self.model.params.segment
        return [DenseFactor(segment(self._names[i][0]), segment(self._names[i][1]),
                            self._inputs[i], d)
                for i, d in self._backward(delta)][::-1]

    def loss_gradient(self, y) -> tuple[float, np.ndarray]:
        """(mean training loss, its flat gradient): cross-entropy for a
        classifier, squared error for the regressor. Like the tape, it forms
        no gradient toward the data matrix. Stacked, ``y`` and the loss are
        per job."""
        m = self.output.shape[-2]
        if self.model.is_classifier:
            y = self.model._check_labels(y)
            if y.shape != self.output.shape[:-1]:
                raise ad.ShapeMismatch("nll", f"{self.output.shape[:-1]} rows vs {y.shape} targets")
            # The tape's delta, g - p * sum(g) with g = -1/m at the label, is
            # p / m less 1/m at the label, byte for byte: sum(g) is -1/m.
            at_label = np.arange(y.size) * self.output.shape[-1] + y.reshape(-1)
            value = -self.log_probs.reshape(-1)[at_label].reshape(y.shape).sum(axis=-1) / m
            delta = self.probs * (1.0 / m)
            delta.reshape(-1)[at_label] -= 1.0 / m
        else:
            y = np.asarray(y, dtype=np.float64)
            if y.shape != self.output.shape[:-1]:
                raise ad.ShapeMismatch("mse", f"pred {self.output.shape[:-1]} vs target {y.shape}")
            diff = self.output[..., 0] - y
            value = (diff * diff).sum(axis=-1) / m
            delta = (2.0 * diff * (1.0 / m))[..., None]
        params = self.model.params
        grad = np.zeros(value.shape + (len(params),), dtype=np.float64)
        for i, d in self._backward(delta):
            w, b = (params.segment(name) for name in self._names[i])
            out = grad[..., w.offset:w.offset + w.length].reshape(*value.shape, -1, d.shape[-1])
            np.matmul(np.swapaxes(self._inputs[i], -1, -2), d, out=out)
            grad[..., b.offset:b.offset + b.length] = d.sum(axis=-2)
        return value, grad


_CLASSES = {"logreg": LogReg, "mlp": MLP, "tiny_attention": TinyAttention,
            "linear_regressor": LinearRegressor}


def build(spec: ModelSpec) -> Model:
    """Construct and deterministically initialize a model from its spec."""
    _validate(spec)
    cls = _CLASSES[spec.kind]
    layout, fan = cls.layout(spec)
    params = ParamVector(layout)
    _init(params, fan, spec.seed)
    return cls(spec, params)


def zoo_specs(seed: int = 0) -> list[ModelSpec]:
    """One desk-scale spec per model kind, used by gradient-check sweeps."""
    return [
        ModelSpec("logreg", input_dim=6, num_classes=3, seed=seed),
        ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=3, seed=seed),
        ModelSpec("tiny_attention", input_dim=24, hidden=(8,), num_classes=2,
                  seed=seed, embed_dim=6, max_len=6),
        ModelSpec("linear_regressor", input_dim=7, num_classes=0, seed=seed),
    ]


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then the raw little-endian float64
# payload. The header records the spec, seed, segment table and a sha256 of
# the payload so corruption is detected on load.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "fishgrad-checkpoint-v1"


def save_checkpoint(model: Model, path) -> None:
    payload = model.params.data.astype("<f8").tobytes()
    header = {
        "format": CHECKPOINT_FORMAT,
        "spec": model.spec.to_dict(),
        "seed": model.spec.seed,
        "segments": [{"name": s.name, "offset": s.offset, "shape": list(s.shape)}
                     for s in model.params.segments],
        "hash": hashlib.sha256(payload).hexdigest(),
    }
    write_atomic(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if hashlib.sha256(payload).hexdigest() != header["hash"]:
        raise ValueError(f"checkpoint payload hash mismatch: {path}")
    model = build(ModelSpec.from_dict(header["spec"]))
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if len(data) != model.num_params:
        raise ValueError(f"checkpoint has {len(data)} values, model wants {model.num_params}")
    model.params.data[:] = data
    return model
