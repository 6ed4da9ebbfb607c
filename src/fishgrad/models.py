"""Desk-scale differentiable models over a flat, segment-addressed parameter
vector.

Four kinds are provided by two classes. ``Dense`` is a stack of dense
layers: a softmax linear classifier (``logreg``), an MLP with tanh or relu
hidden layers (``mlp``), or a scalar linear regressor
(``linear_regressor``). ``TinyAttention`` is a one-block single-head
attention classifier over token ids (``tiny_attention``). Classifiers expose
log p(y|x) through a log-softmax head; the regressor's log-likelihood is the
unit-variance Gaussian -(f(x)-y)^2/2 so that squared-gradient scores are
well defined for regression tasks too.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from ._check import integer
from .fileio import check_keys, write_atomic


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

    Segments partition [0, len) with no gaps or overlaps; flat index
    ``seg.offset + pos`` is position ``pos`` of segment ``seg`` for the life
    of the model.
    """

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]]):
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
        self.data = np.zeros(offset, dtype=np.float64)
        self._by_name = {s.name: s for s in self.segments}

    def __len__(self) -> int:
        return len(self.data)

    def view(self, name: str) -> np.ndarray:
        """Writable reshaped view of one segment (shares storage)."""
        seg = self._by_name[name]
        return self.data[seg.offset:seg.offset + seg.length].reshape(seg.shape)

    def segment(self, name: str) -> Segment:
        return self._by_name[name]

    def content_hash(self) -> str:
        return hashlib.sha256(self.data.astype("<f8").tobytes()).hexdigest()

    def copy(self) -> "ParamVector":
        out = ParamVector([(s.name, s.shape) for s in self.segments])
        out.data[:] = self.data
        return out


KINDS = ("logreg", "mlp", "tiny_attention", "linear_regressor")


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

    def __post_init__(self):
        """Reject a bad spec here, before anything is built from it. JSON gives
        ``hidden`` as a list of widths; it is kept as a tuple, so hashable."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        regressor = self.kind == "linear_regressor"
        for name, least in (("input_dim", 1), ("num_classes", 0 if regressor else 2),
                            ("seed", 0), ("embed_dim", 1), ("max_len", 1)):
            integer(name, getattr(self, name), least)
        if regressor and self.num_classes != 0:
            raise ValueError("linear_regressor is scalar-output; set num_classes=0")
        if not isinstance(self.hidden, (list, tuple)):
            raise ValueError(f"hidden must be a list of positive widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(integer("hidden", h, 1) for h in self.hidden))
        if self.hidden and self.kind in ("logreg", "linear_regressor"):
            raise ValueError(f"{self.kind} has no hidden layers, so hidden must be empty "
                             f"(or use kind mlp), got {list(self.hidden)}")
        if self.kind == "tiny_attention" and self.embed_dim > 32:
            raise ValueError(f"embed_dim must be in (0, 32], got {self.embed_dim}")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(**d)


def _init(params: ParamVector, fan_in: dict[str, int], seed: int) -> None:
    # Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] per segment, drawn in segment
    # order from one generator so rebuilds are bit-identical.
    rng = np.random.default_rng(seed)
    for seg in params.segments:
        bound = 1.0 / math.sqrt(fan_in[seg.name])
        params.view(seg.name)[...] = rng.uniform(-bound, bound, size=seg.shape)


class Model:
    """Shared surface: flat params, batched forward, scalar log-lik / loss."""

    def __init__(self, spec: ModelSpec, params: ParamVector):
        self.spec = spec
        self.params = params
        self.is_classifier = spec.num_classes > 0

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
        model runs on the tape (``TapePass``).
        """
        return ()

    def run(self, X) -> "DensePass":
        """The model's pass (its class's ``pass_class``) over the checked ``X``."""
        return self.pass_class(self).run(self._check_inputs(X))

    # -- tape protocol (subclasses implement logits_tensor, or loss_mean) --

    def logits_tensor(self, tape: ad.Tape, bound, X) -> ad.Tensor:
        raise NotImplementedError

    def log_prob_mean(self, tape: ad.Tape, X, y) -> ad.Tensor:
        """Scalar mean over the batch of log p(y_i | x_i): minus the
        cross-entropy, or minus half the regressor's squared error."""
        return ad.scale(self.loss_mean(tape, X, y), -1.0 if self.is_classifier else -0.5)

    def loss_mean(self, tape: ad.Tape, X, y) -> ad.Tensor:
        """Scalar mean training loss over the batch: cross-entropy, or the
        regressor's squared error on its one output column."""
        bound = tape.bind(self.params)
        out = self.logits_tensor(tape, bound, self._check_inputs(X))
        y = self.check_labels(y)
        return ad.nll(ad.log_softmax(out), y) if self.is_classifier else ad.mse(out, y[:, None])

    # -- plain numeric conveniences --

    def log_probs(self, x) -> np.ndarray:
        """Full log-distribution over classes for one sample."""
        if not self.is_classifier:
            raise ValueError(f"{self.spec.kind} has no class logits")
        return self.run(np.asarray(x)[None, :]).log_probs[0]

    def predictions(self, X) -> np.ndarray:
        """The pass's ``predictions`` over ``X``."""
        return self.run(X).predictions

    def layer_input(self, X, k: int) -> np.ndarray:
        """The input of dense layer ``k`` for each row of ``X``, or of each row
        set of a (jobs, rows, features) stack: ``DensePass``'s layers 0..k-1
        (the checked inputs, at k = 0)."""
        X = np.asarray(X, dtype=np.float64)
        a = self._check_inputs(X.reshape(-1, X.shape[-1]) if X.ndim == 3 else X).reshape(X.shape)
        for w, b in self.dense_layers()[:k]:
            a = _dense_layer(a, self.params.view(w), self.params.view(b), self.spec.activation)
        return a

    def _check_inputs(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if not np.all(np.isfinite(X)):
            raise ValueError(f"{self.spec.kind}: non-finite input")
        if X.ndim != 2 or X.shape[1] != self.spec.input_dim:
            raise ad.ShapeMismatch(self.spec.kind,
                                   f"want (batch, {self.spec.input_dim}) inputs, got {X.shape}")
        return X

    def check_labels(self, y) -> np.ndarray:
        """Class ids ``y`` as an int64 array, each in [0, num_classes), or a
        regressor's targets as a float64 array."""
        if not self.is_classifier:
            return np.asarray(y, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if y.min(initial=0) < 0 or y.max(initial=0) >= self.num_classes:
            raise ValueError(f"label out of range [0, {self.num_classes}): {y}")
        return y


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


class DensePass:
    """Forward and backward passes through a stack of dense layers, recorded
    on no tape.

    A pass is built once for a parameter block: ``params``, the parameters
    from layer ``start``'s weight on (the model's own by default). It holds
    each layer's spans and weight and bias views into the block, which stay
    live while the block is updated in place, and one gradient buffer.
    ``run(X)`` then takes a batch through the layers from their input ``X``
    and keeps each layer's input, so one batched backward pass gives either
    the per-example factors of log p(y|x) (``factors``: Goodfellow,
    "Efficient Per-Example Gradient Computations", arXiv:1510.01799) or the
    batch gradient of the mean training loss, A^T Delta per layer
    (``loss_gradient``). The arithmetic follows the tape's forward and
    backward rules op for op, so both match the tape byte for byte.

    ``params`` may stack such blocks in a (jobs, parameters) array, with ``X``
    (jobs, rows, features): every array then gains a leading job axis, as
    ``training`` uses to run several fine-tunes at once. The pass checks
    only that there is one label per row: ``Model.run`` checks the inputs,
    and labels arrive as ``Model.check_labels`` returns them. ``TapePass``
    gives a model without dense layers the same interface.
    """

    def __init__(self, model: Model, params: np.ndarray | None = None, start: int = 0):
        self.model = model
        self._activation = model.spec.activation
        names, segment = model.dense_layers()[start:], model.params.segment
        base = segment(names[0][0]).offset
        params = model.params.data[base:] if params is None else params
        lead = params.shape[:-1]
        self._grad = np.empty(params.shape)
        # Per layer: the (weight, bias) spans in the block, and views of them
        # in the block and in the gradient (splitting the last axis is always
        # a view).
        self._spans, self._views, self._grads = [], [], []
        for w, b in names:
            w, b = segment(w), segment(b)
            spans = (slice(w.offset - base, w.offset - base + w.length),
                     slice(b.offset - base, b.offset - base + b.length))
            shapes = (*lead, w.shape[0], b.length), (*lead, 1, b.length)
            self._spans.append(spans)
            self._views.append([params[..., s].reshape(h) for s, h in zip(spans, shapes)])
            self._grads.append([self._grad[..., s].reshape(h) for s, h in zip(spans, shapes)])
        self._row_offsets = np.empty(0, dtype=np.int64)  # of each row's first class

    def run(self, X: np.ndarray) -> "DensePass":
        """Take the batch ``X`` through the layers, in place of the last
        batch, and return the pass."""
        self._inputs, self._log_probs, a = [], None, X
        for i, (W, bias) in enumerate(self._views):
            self._inputs.append(a)
            a = _dense_layer(a, W, bias, self._activation if i < len(self._views) - 1 else None)
        self.output = a
        return self

    @property
    def predictions(self) -> np.ndarray:
        """Argmax class per row (ties to the lowest class index), or the
        regressor's output."""
        return np.argmax(self.output, axis=-1) if self.model.is_classifier else self.output[..., 0]

    @property
    def log_probs(self) -> np.ndarray:
        """Log-softmax of a classifier's logits, as the tape computes it,
        once per batch. The max, and below 8 classes the sum, run class by
        class: faster on a short class axis, and the same bytes, as numpy
        adds under 8 terms in order."""
        if self._log_probs is None:
            out, classes = self.output, self.output.shape[-1]
            top = out[..., 0]
            for c in range(1, classes):
                top = np.maximum(top, out[..., c])
            shifted = out - top[..., None]
            exp = np.exp(shifted)
            if classes >= 8:
                total = exp.sum(axis=-1)
            else:
                total = exp[..., 0] + exp[..., 1]
                for c in range(2, classes):
                    total += exp[..., c]
            self._log_probs = shifted - np.log(total)[..., None]
        return self._log_probs

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def _deltas(self, delta: np.ndarray) -> list:
        """The gradient at each layer's output, input side first, from
        ``delta`` at the last: pulled back through every hidden activation."""
        deltas = [delta]
        for i in range(len(self._views) - 1, 0, -1):
            # The activation's slope, read off its output: 1 - tanh^2, or
            # relu's output > 0 exactly where its input is. In-place updates
            # keep one (n x width) temporary alive, not three.
            a = self._inputs[i]
            if self._activation == "tanh":
                slope = a * a
                np.subtract(1.0, slope, out=slope)
            else:
                slope = a > 0.0
            delta = delta @ np.swapaxes(self._views[i][0], -1, -2)
            delta *= slope
            deltas.append(delta)
        return deltas[::-1]

    def factors(self, y) -> list[tuple]:
        """Per-example factors of log p(y_i | x_i) for class ids or regression
        targets ``y``: (weight span, bias span, A, Delta) per layer, input side
        first. A (n, fan_in) is the layer's input and Delta (n, fan_out) the
        gradient at its output; row i's gradient is outer(A[i], Delta[i]) on
        the weight span and Delta[i] on the bias span. The spans index the
        pass's parameter block: the whole vector, for a pass from layer 0."""
        self._check_count(self.output.shape[:-1], y)
        if self.model.is_classifier:
            delta = -self.probs
            delta[np.arange(len(y)), y] += 1.0
        else:
            delta = y[:, None] - self.output
        return [(*spans, a, d) for spans, a, d in
                zip(self._spans, self._inputs, self._deltas(delta))]

    def _check_count(self, rows: tuple, y) -> None:
        """Raise ``ShapeMismatch`` unless ``y`` has one label per row."""
        if np.shape(y) != rows:
            op = "nll" if self.model.is_classifier else "mse"
            raise ad.ShapeMismatch(op, f"{rows} rows vs {np.shape(y)} targets")

    def loss_gradient(self, y) -> tuple[float, np.ndarray]:
        """(mean training loss, its gradient over the pass's parameter
        block): cross-entropy for a classifier, squared error for the
        regressor. Like the tape, it forms no gradient toward the data matrix.
        Stacked, ``y`` and the loss are per job. The gradient is the pass's
        buffer, which the next call overwrites. This is the batch's last
        backward pass: it lets go of the layer inputs, so that the next
        batch's arrays can take their memory while it is still in cache."""
        out = self.output
        m = out.shape[-2]
        self._check_count(out.shape[:-1], y)
        if self.model.is_classifier:
            # The tape's delta, g - p * sum(g) with g = -1/m at the label, is
            # p / m less 1/m at the label, byte for byte: sum(g) is -1/m.
            if len(self._row_offsets) < y.size:
                self._row_offsets = np.arange(y.size) * out.shape[-1]
            at_label = self._row_offsets[:y.size] + y.reshape(-1)
            value = -self.log_probs.reshape(-1)[at_label].reshape(y.shape).sum(axis=-1) / m
            delta = self.probs
            delta *= 1.0 / m
            delta.reshape(-1)[at_label] -= 1.0 / m
        else:
            diff = out[..., 0] - y
            value = (diff * diff).sum(axis=-1) / m
            delta = (2.0 * diff * (1.0 / m))[..., None]
        for (grad_w, grad_b), a, d in zip(self._grads, self._inputs, self._deltas(delta)):
            np.matmul(np.swapaxes(a, -1, -2), d, out=grad_w)
            grad_b[..., 0, :] = d.sum(axis=-2)
        self._inputs = None
        return value, self._grad


class TapePass(DensePass):
    """``DensePass``'s interface on the tape, for a model without dense layers
    (tiny_attention, so ``start`` is 0). Each job is the model over one row
    of a (jobs, parameters) block, or over its own vector: a view, so it sees
    in-place updates. A job's batch loss is recorded on one tape, each row's
    log-likelihood gradient on a tape of its own, and ``output`` on one tape
    per job at its first read after each ``run``. A 2-D batch is shared by
    every job."""

    def __init__(self, model: Model, params: np.ndarray | None = None, start: int = 0):
        self.model = model
        block = model.params.data if params is None else params
        self._stacked, self._grad, self._jobs = block.ndim == 2, np.empty(block.shape), []
        for row in block.reshape(-1, block.shape[-1]):
            vector = copy.copy(model.params)  # the segment table, over the row
            vector.data = row
            self._jobs.append(type(model)(model.spec, vector))

    def run(self, X: np.ndarray) -> "TapePass":
        self._X = X if X.ndim == 3 else [X] * len(self._jobs)  # each job's batch
        self._output, self._log_probs = None, None
        return self

    @property
    def output(self) -> np.ndarray:
        if self._output is None:
            logits = []
            for job, rows in zip(self._jobs, self._X):
                tape = ad.Tape()
                bound = tape.bind(job.params)
                logits.append([job._logits_single(tape, bound, ids).data[0] for ids in rows])
            self._output = np.array(logits if self._stacked else logits[0])
        return self._output

    def factors(self, y) -> list[tuple]:
        """One block over the whole vector: a column of ones as A, and each
        row's log-likelihood gradient as Delta."""
        (job,), (X,) = self._jobs, self._X
        self._check_count((len(X),), y)
        grads = np.array(ad.per_sample_gradients(job, X, y))
        return [(slice(0, job.num_params), None, np.ones((len(X), 1)), grads)]

    def loss_gradient(self, y) -> tuple[float, np.ndarray]:
        values, grads = np.empty(len(self._jobs)), self._grad.reshape(len(self._jobs), -1)
        for j, (job, rows, labels) in enumerate(zip(self._jobs, self._X,
                                                    y if self._stacked else [y])):
            tape = ad.Tape()
            out = job.loss_mean(tape, rows, labels)
            values[j], grads[j] = out.data, tape.gradient(1.0, output=out)
        return (values if self._stacked else values[0]), self._grad


class Dense(Model):
    """A stack of dense layers over features: a W0 + b0, then an activation
    and the next layer for each hidden width. Without hidden layers it is
    ``logreg``, the softmax linear classifier, or ``linear_regressor``,
    whose one output column is the mean of its Gaussian head."""

    pass_class = DensePass

    @staticmethod
    def layout(spec: ModelSpec):
        dims = (spec.input_dim, *spec.hidden, max(spec.num_classes, 1))
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


class TinyAttention(Model):
    """One attention block over token ids, mean-pooled into a linear head.

    Token and position embeddings are summed, passed through single-head
    scaled dot-product attention, a two-layer feed-forward, mean pooling
    over positions, then the class head. Position embeddings make the model
    order-sensitive. Inputs are (batch, seq) integer ids; sequences are
    processed one at a time on the shared tape.
    """

    pass_class = TapePass

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

    def loss_mean(self, tape, X, y) -> ad.Tensor:
        # No stack primitive in the op set: accumulate per-sequence scalar
        # losses with add and rescale by 1/B.
        X = self._check_inputs(X)
        y = self.check_labels(y)
        if y.shape != X.shape[:1]:
            raise ad.ShapeMismatch("nll", f"{X.shape[:1]} rows vs {y.shape} targets")
        bound = tape.bind(self.params)
        total = None
        for i in range(len(X)):
            term = ad.nll(ad.log_softmax(self._logits_single(tape, bound, X[i])), y[i:i + 1])
            total = term if total is None else ad.add(total, term)
        return ad.scale(total, 1.0 / len(X))


_CLASSES = {"logreg": Dense, "mlp": Dense, "tiny_attention": TinyAttention,
            "linear_regressor": Dense}


def build(spec: ModelSpec) -> Model:
    """Construct and deterministically initialize a model from its spec."""
    cls = _CLASSES[spec.kind]
    layout, fan = cls.layout(spec)
    params = ParamVector(layout)
    _init(params, fan, spec.seed)
    return cls(spec, params)


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then the raw little-endian float64
# payload. The header records the spec, seed, segment table and a sha256 of
# the payload so corruption is detected on load.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "fishgrad-checkpoint-v1"
# The header keys ``load_checkpoint`` reads past ``format``, for ``fileio.check_keys``.
CHECKPOINT_KEYS = {"spec": {"kind": None, "input_dim": None}, "hash": "a string"}


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
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:  # a truncated or foreign header line
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    check_keys(path, "", header, CHECKPOINT_KEYS)
    unknown = sorted(set(header["spec"]) - set(ModelSpec.__dataclass_fields__))
    if unknown:
        raise ValueError(f"{path}: unknown spec keys: {unknown}")
    if hashlib.sha256(payload).hexdigest() != header["hash"]:
        raise ValueError(f"checkpoint payload hash mismatch: {path}")
    model = build(ModelSpec.from_dict(header["spec"]))
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if len(data) != model.num_params:
        raise ValueError(f"checkpoint has {len(data)} values, model wants {model.num_params}")
    model.params.data[:] = data
    return model
