"""Reverse-mode differentiation over dense float64 arrays.

A Tape records every primitive of one forward computation in execution order,
so the node list is already topologically sorted. ``Tape.gradient`` replays
the record once in reverse, accumulating adjoints, and returns the gradient
with respect to the bound flat parameter vector.

Contract: a tape records exactly one forward pass. ``gradient`` may be called
repeatedly on the same tape (adjoints are recomputed from scratch each call);
start a new Tape for a new forward pass. The op set is deliberately small and
fixed so every backward rule below can be audited by hand.

``loss_gradient`` delegates to the model's pass (``Model.run``). A stack of
dense layers (logreg, mlp, linear_regressor) runs ``models.DensePass``,
which applies the same rules without recording closures and is tested
against the tape byte for byte; tiny_attention's ``models.TapePass``
records its loss on a ``Tape``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """An op received operands whose shapes do not compose."""

    def __init__(self, op: str, detail: str):
        self.op = op
        self.detail = detail
        super().__init__(f"{op}: {detail}")


class BackwardError(RuntimeError):
    """gradient() called on a tape in an unusable state."""


class _Node:
    __slots__ = ("op", "inputs", "shape", "backward")

    def __init__(self, op: str, inputs: tuple[int, ...], shape: tuple[int, ...],
                 backward: Callable[[np.ndarray], Sequence[np.ndarray]] | None):
        self.op = op
        self.inputs = inputs
        self.shape = shape
        self.backward = backward  # None for leaves


class Tensor:
    """Value recorded on a tape. ``data`` is always a float64 ndarray."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data: np.ndarray, tape: "Tape", node: int):
        self.data = data
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, node={self.node})"


class Tape:
    """Execution record of one forward pass plus parameter bindings."""

    def __init__(self):
        self._nodes: list[_Node] = []
        # (node_id, offset, length) per bound parameter segment
        self._param_slots: list[tuple[int, int, int]] = []
        self._num_params = 0

    # ---- recording ----

    def _record(self, op: str, inputs: tuple[int, ...], data: np.ndarray,
                backward) -> Tensor:
        self._nodes.append(_Node(op, inputs, data.shape, backward))
        return Tensor(data, self, len(self._nodes) - 1)

    def constant(self, value) -> Tensor:
        """Leaf with no gradient tracking (inputs, fixed coefficients)."""
        return self._record("const", (), np.asarray(value, dtype=np.float64), None)

    def bind(self, params) -> dict[str, Tensor]:
        """Register the tape's one flat parameter vector; returns one leaf
        per segment. A second ``bind`` raises.

        ``params`` needs ``.data`` (flat float64) and ``.segments`` with
        ``name``/``offset``/``shape``/``length`` fields. Gradients assemble
        back into a flat vector aligned with ``params.data``.
        """
        if self._param_slots:
            raise ValueError("a tape binds one parameter vector; start a new Tape")
        bound: dict[str, Tensor] = {}
        for seg in params.segments:
            view = np.asarray(params.data[seg.offset:seg.offset + seg.length],
                              dtype=np.float64).reshape(seg.shape)
            t = self._record("param", (), view, None)
            self._param_slots.append((t.node, seg.offset, seg.length))
            bound[seg.name] = t
        self._num_params = len(params.data)
        return bound

    # ---- differentiation ----

    def gradient(self, seed=1.0, output: Tensor | None = None) -> np.ndarray:
        """Reverse pass from ``output`` (default: last recorded op).

        ``seed`` must match the output shape (a bare float is accepted for
        scalar outputs). Returns d(output)/dtheta as a flat float64 vector
        aligned with the bound parameter vector.
        """
        if not self._nodes:
            raise BackwardError("gradient() before any forward computation was recorded")
        if not self._param_slots:
            raise BackwardError("gradient() with no bound parameters")
        out_id = output.node if output is not None else len(self._nodes) - 1
        out_node = self._nodes[out_id]
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != out_node.shape:
            raise ShapeMismatch("gradient",
                                f"seed shape {seed_arr.shape} != output shape {out_node.shape}")

        adjoints: list[np.ndarray | None] = [None] * len(self._nodes)
        adjoints[out_id] = seed_arr
        for nid in range(out_id, -1, -1):
            node = self._nodes[nid]
            grad_out = adjoints[nid]
            if grad_out is None or node.backward is None:
                continue
            for input_id, grad_in in zip(node.inputs, node.backward(grad_out)):
                if adjoints[input_id] is None:
                    adjoints[input_id] = grad_in
                else:
                    adjoints[input_id] = adjoints[input_id] + grad_in

        flat = np.zeros(self._num_params, dtype=np.float64)
        for node_id, offset, length in self._param_slots:
            adj = adjoints[node_id]
            if adj is not None:
                flat[offset:offset + length] = adj.reshape(-1)
        return flat


# ---------------------------------------------------------------------------
# Primitive ops. Each checks shapes, computes forward with numpy, and records
# a closure implementing its adjoint rule.
# ---------------------------------------------------------------------------


def _same_tape(op: str, *tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError(f"{op}: operands recorded on different tapes")
    return tape


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for (m,n)x(n,p)."""
    tape = _same_tape("matmul", a, b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeMismatch("matmul", f"ranks {ad.ndim} and {bd.ndim} unsupported")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeMismatch("matmul", f"inner dims {ad.shape} @ {bd.shape}")
    return tape._record("matmul", (a.node, b.node), ad @ bd, lambda g: (g @ bd.T, ad.T @ g))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: (m,n)+(n,)."""
    tape = _same_tape("bias_add", x, b)
    xd, bd = x.data, b.data
    if bd.ndim != 1:
        raise ShapeMismatch("bias_add", f"bias must be 1-D, got {bd.shape}")
    if xd.ndim != 2 or xd.shape[1] != bd.shape[0]:
        raise ShapeMismatch("bias_add", f"cannot broadcast {bd.shape} onto {xd.shape}")
    return tape._record("bias_add", (x.node, b.node), xd + bd, lambda g: (g, g.sum(axis=0)))


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape("add", a, b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch("add", f"{a.data.shape} vs {b.data.shape}")
    return tape._record("add", (a.node, b.node), a.data + b.data,
                        lambda g: (g, g))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return x.tape._record("scale", (x.node,), x.data * c, lambda g: (g * c,))


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatch("transpose", f"need 2-D, got {x.data.shape}")
    return x.tape._record("transpose", (x.node,), x.data.T.copy(),
                          lambda g: (g.T,))


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return x.tape._record("relu", (x.node,), np.maximum(xd, 0.0),
                          lambda g: (g * (xd > 0.0),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return x.tape._record("tanh", (x.node,), y, lambda g: (g * (1.0 - y * y),))


def _softmax_last(xd: np.ndarray) -> np.ndarray:
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = _softmax_last(x.data)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return x.tape._record("softmax", (x.node,), y, backward)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis; dx = g - softmax * sum(g)."""
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def backward(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return x.tape._record("log_softmax", (x.node,), y, backward)


def nll(log_probs: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of (m,) integer targets under (m,k)
    log-probs. Targets outside [0, k) raise.
    """
    lp = log_probs.data
    t = np.asarray(targets, dtype=np.int64)
    if lp.ndim != 2:
        raise ShapeMismatch("nll", f"log-probs rank {lp.ndim}")
    m, k = lp.shape
    if t.shape != (m,):
        raise ShapeMismatch("nll", f"{(m,)} rows vs {t.shape} targets")
    if t.min() < 0 or t.max() >= k:
        raise ValueError(f"nll: target out of range [0, {k}): {t}")
    value = -lp[np.arange(m), t].sum() / m

    def backward(g):
        gl = np.zeros_like(lp)
        gl[np.arange(m), t] = -float(g) / m
        return (gl,)

    return log_probs.tape._record("nll", (log_probs.node,),
                                  np.float64(value), backward)


def mse(pred: Tensor, targets) -> Tensor:
    """Mean squared error against a fixed target vector."""
    p = pred.data
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeMismatch("mse", f"pred {p.shape} vs target {t.shape}")
    n = p.size if p.size else 1
    diff = p - t
    value = float((diff * diff).sum() / n)

    def backward(g):
        return (2.0 * diff * (float(g) / n),)

    return pred.tape._record("mse", (pred.node,), np.float64(value), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: (V,d) table gathered at integer ids (t,) -> (t,d)."""
    td = table.data
    idx = np.asarray(ids, dtype=np.int64)
    if td.ndim != 2:
        raise ShapeMismatch("embedding", f"table must be 2-D, got {td.shape}")
    if idx.ndim != 1:
        raise ShapeMismatch("embedding", f"ids must be 1-D, got {idx.shape}")
    if idx.min() < 0 or idx.max() >= td.shape[0]:
        raise ValueError(f"embedding: id out of range [0, {td.shape[0]})")
    out = td[idx]

    def backward(g):
        gt = np.zeros_like(td)
        np.add.at(gt, idx, g)
        return (gt,)

    return table.tape._record("embedding", (table.node,), out, backward)


def mean_rows(x: Tensor) -> Tensor:
    """Column-wise mean of a (m,n) matrix -> (1,n)."""
    xd = x.data
    if xd.ndim != 2:
        raise ShapeMismatch("mean_rows", f"need 2-D, got {xd.shape}")
    m = xd.shape[0]
    return x.tape._record("mean_rows", (x.node,), xd.mean(axis=0, keepdims=True),
                          lambda g: (np.tile(g / m, (m, 1)),))


# ---------------------------------------------------------------------------
# Gradient extraction over the model protocol. A model exposes
# ``params`` (flat vector with segments) and ``log_prob_mean(tape, X, y)`` /
# ``loss_mean(tape, X, y)`` returning a scalar Tensor.
# ---------------------------------------------------------------------------


def log_prob_gradient(model, X, y) -> np.ndarray:
    """d(mean log-likelihood)/dtheta over a batch."""
    tape = Tape()
    out = model.log_prob_mean(tape, X, y)
    return tape.gradient(1.0, output=out)


def loss_gradient(model, X, y) -> tuple[float, np.ndarray]:
    """(mean loss value, d(mean loss)/dtheta) over a batch, from the model's
    pass."""
    return model.run(X).loss_gradient(model.check_labels(y))


def per_sample_gradients(model, X, y) -> list[np.ndarray]:
    """Per-example log-likelihood gradients, one independent pass each.

    The mean of the returned vectors equals the batch log-likelihood
    gradient to within accumulation rounding.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) < 1:
        raise ValueError("per_sample_gradients: empty batch")
    grads = []
    for i in range(len(X)):
        grads.append(log_prob_gradient(model, X[i:i + 1], y[i:i + 1]))
    return grads


def finite_difference_gradient(f, params_data: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of the flat params.

    Independent check for the tape: only calls ``f`` (a pure forward
    evaluation), never the reverse pass. Restores ``params_data`` in place.
    """
    grad = np.zeros_like(params_data)
    for i in range(len(params_data)):
        orig = params_data[i]
        params_data[i] = orig + h
        fp = f()
        params_data[i] = orig - h
        fm = f()
        params_data[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
