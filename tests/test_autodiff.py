"""Tape-level gradient checks: closed forms, independent recomputation, and
the central finite-difference oracle."""

import numpy as np
import pytest

from fishgrad import autodiff as ad
from fishgrad import models as mz

from support import zoo_specs


def quadratic_tape(w0: float):
    """f(w) = w^2 built from the recorded primitives, w bound as a parameter."""
    params = mz.ParamVector([("w", (1, 1))])
    params.data[:] = w0
    tape = ad.Tape()
    bound = tape.bind(params)
    pred = ad.matmul(tape.constant(np.ones((1, 1))), bound["w"])
    ad.mse(pred, np.zeros((1, 1)))
    return tape


class TestClosedForms:
    def test_zero_weight_log_softmax_is_uniform(self):
        """1x2 input through zero weights: both log-probs are ln(1/2)."""
        params = mz.ParamVector([("W", (2, 2)), ("b", (2,))])
        tape = ad.Tape()
        bound = tape.bind(params)
        logits = ad.bias_add(ad.matmul(tape.constant([[1.0, 1.0]]), bound["W"]), bound["b"])
        out = ad.log_softmax(logits)
        np.testing.assert_allclose(out.data, np.log(0.5), rtol=0, atol=0)

    def test_identity_linear_layer(self):
        params = mz.ParamVector([("W", (2, 2))])
        params.view("W")[...] = np.eye(2)
        tape = ad.Tape()
        bound = tape.bind(params)
        out = ad.matmul(tape.constant([[3.0, -1.0]]), bound["W"])
        np.testing.assert_array_equal(out.data, [[3.0, -1.0]])

    def test_square_gradient(self):
        """d(w^2)/dw at w=3 is 6."""
        tape = quadratic_tape(3.0)
        np.testing.assert_allclose(tape.gradient(), [6.0], rtol=0, atol=0)

    def test_log_softmax_nll_uniform_gradient(self):
        """Softmax-minus-onehot at uniform logits, true class 0: [-1/2, 1/2]."""
        params = mz.ParamVector([("logits", (1, 2))])
        tape = ad.Tape()
        bound = tape.bind(params)
        ad.nll(ad.log_softmax(bound["logits"]), [0])
        np.testing.assert_allclose(tape.gradient(), [-0.5, 0.5], atol=1e-15)

    def test_mlp_forward_pinned_by_straight_line_recompute(self):
        """Composed forward equals an independent numpy transcription."""
        model = mz.build(mz.ModelSpec("mlp", input_dim=2, hidden=(4,), num_classes=2, seed=0))
        x = np.array([[1.0, 0.0]])
        got = model.log_probs(x[0])

        w0, b0 = model.params.view("W0"), model.params.view("b0")
        w1, b1 = model.params.view("W1"), model.params.view("b1")
        h = np.tanh(x @ w0 + b0)
        logits = (h @ w1 + b1)[0]
        expected = logits - np.log(np.exp(logits).sum())
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestFiniteDifferenceOracle:
    """Autodiff against central differences, h=1e-4, tolerance 1e-5 relative."""

    @pytest.mark.parametrize("spec", zoo_specs(seed=11), ids=lambda s: s.kind)
    def test_zoo_model_gradients(self, spec):
        model = mz.build(spec)
        rng = np.random.default_rng(5)
        if spec.kind == "tiny_attention":
            X = rng.integers(0, spec.input_dim, size=(2, 5))
            y = rng.integers(0, spec.num_classes, size=2)
        elif spec.kind == "linear_regressor":
            X = rng.normal(size=(3, spec.input_dim))
            y = rng.normal(size=3)
        else:
            X = rng.normal(size=(3, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=3)
        grad = ad.loss_gradient(model, X, y)[1]

        def forward():
            return float(model.loss_mean(ad.Tape(), X, y).data)

        fd = ad.finite_difference_gradient(forward, model.params.data, h=1e-4)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-5

    def test_relu_path(self):
        """relu gradcheck at a point with pre-activations away from the kink."""
        model = mz.build(mz.ModelSpec("mlp", input_dim=3, hidden=(6,), num_classes=2,
                                      seed=2, activation="relu"))
        X = np.array([[1.5, -2.0, 0.7], [0.3, 1.1, -0.4]])
        y = np.array([0, 1])
        pre = X @ model.params.view("W0") + model.params.view("b0")
        assert np.abs(pre).min() > 1e-3  # finite differences stay on one side
        grad = ad.loss_gradient(model, X, y)[1]
        fd = ad.finite_difference_gradient(
            lambda: float(model.loss_mean(ad.Tape(), X, y).data),
            model.params.data, h=1e-4)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-5


PASS_SPECS = [
    mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=1),
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=3, seed=2),
    mz.ModelSpec("mlp", input_dim=5, hidden=(7, 6), num_classes=3, seed=3,
                 activation="relu"),
    mz.ModelSpec("linear_regressor", input_dim=7, num_classes=0, seed=4),
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=2, seed=5),
    # DensePass sums fewer than 8 classes one by one, and more with numpy.
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=10, seed=6),
    mz.ModelSpec("tiny_attention", input_dim=24, hidden=(8,), num_classes=3, seed=7,
                 embed_dim=6, max_len=6),
]
PASS_IDS = ["logreg", "mlp-tanh", "mlp-relu-2-hidden", "linear_regressor", "mlp-two-class",
            "mlp-ten-class", "tiny_attention"]


def batch(spec, rng, *shape):
    """Inputs and labels of the given leading shape for ``spec``."""
    if spec.kind == "tiny_attention":
        X = rng.integers(0, spec.input_dim, size=(*shape, spec.max_len))
    else:
        X = rng.normal(size=(*shape, spec.input_dim))
    if spec.kind == "linear_regressor":
        return X, rng.normal(size=shape)
    return X, rng.integers(0, spec.num_classes, size=shape)


def tape_logits(model, X):
    """Each row's output on the tape: the whole batch on one tape for a dense
    stack, one tape per sequence for tiny_attention."""
    if model.dense_layers():
        tape = ad.Tape()
        return [model.logits_tensor(tape, tape.bind(model.params), X)]
    rows = []
    for ids in X:
        tape = ad.Tape()
        rows.append(model._logits_single(tape, tape.bind(model.params), ids))
    return rows


def test_every_kind_has_a_pass_spec():
    """Each model kind names its pass and is checked against the tape below,
    so a kind added without a pass fails here."""
    assert {spec.kind for spec in PASS_SPECS} == set(mz._CLASSES)
    assert all(issubclass(cls.pass_class, mz.DensePass) for cls in mz._CLASSES.values())


class TestDensePassMatchesTape:
    """Every model kind's pass, the untaped dense path or tiny_attention's
    ``TapePass``, gives the tape's loss, gradient, predictions and
    log-probabilities byte for byte."""

    @pytest.mark.parametrize("n", [1, 7, 32])  # 1/7 is inexact
    @pytest.mark.parametrize("spec", PASS_SPECS, ids=PASS_IDS)
    def test_loss_gradient_and_predictions(self, spec, n):
        model = mz.build(spec)
        X, y = batch(spec, np.random.default_rng(n), n)
        assert isinstance(model.run(X), model.pass_class)
        tape = ad.Tape()
        out = model.loss_mean(tape, X, y)
        taped = tape.gradient(1.0, output=out)
        value, grad = ad.loss_gradient(model, X, y)
        assert value == float(out.data)
        assert grad.tobytes() == taped.tobytes()

        logits = tape_logits(model, X)
        out = np.concatenate([np.atleast_2d(t.data) for t in logits])
        expected = out[:, 0] if spec.kind == "linear_regressor" else np.argmax(out, axis=1)
        got = model.predictions(X)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        for x in X if model.is_classifier else ():  # one row, as the tape gives it alone
            want = ad.log_softmax(tape_logits(model, x[None])[0]).data.reshape(-1)
            assert model.log_probs(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", PASS_SPECS, ids=PASS_IDS)
    def test_each_stacked_job_equals_its_own_pass(self, spec):
        """With a leading job axis, each job's loss and gradient are those of
        its own pass, byte for byte."""
        model = mz.build(spec)
        rng = np.random.default_rng(7)
        X, y = batch(spec, rng, 3, 7)
        block = model.params.data + rng.normal(scale=0.1, size=(3, model.num_params))
        values, grads = model.pass_class(model, block).run(X).loss_gradient(y)
        for j in range(3):
            value, grad = model.pass_class(model, block[j]).run(X[j]).loss_gradient(y[j])
            assert value.tobytes() == values[j].tobytes()
            assert grad.tobytes() == grads[j].tobytes()

    def test_label_count_checked(self):
        model = mz.build(PASS_SPECS[0])
        X = np.zeros((3, 6))
        with pytest.raises(ad.ShapeMismatch, match="nll"):
            ad.loss_gradient(model, X, [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            ad.loss_gradient(model, X, [0, 1, 3])

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 0]], ids=["short", "long"])
    def test_label_count_checked_on_the_tape(self, labels):
        model = mz.build(PASS_SPECS[-1])
        X, _ = batch(PASS_SPECS[-1], np.random.default_rng(0), 3)
        for call in (lambda: ad.loss_gradient(model, X, labels),
                     lambda: model.loss_mean(ad.Tape(), X, labels)):
            with pytest.raises(ad.ShapeMismatch, match=r"nll: \(3,\) rows vs"):
                call()


class TestTapeContract:
    def test_backward_before_forward_raises(self):
        with pytest.raises(ad.BackwardError):
            ad.Tape().gradient()

    def test_backward_without_parameters_raises(self):
        tape = ad.Tape()
        ad.relu(tape.constant([1.0, -1.0]))
        with pytest.raises(ad.BackwardError):
            tape.gradient()

    def test_shape_mismatch_names_op_and_dims(self):
        tape = ad.Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((2, 3)))
        with pytest.raises(ad.ShapeMismatch, match=r"matmul.*\(2, 3\)"):
            ad.matmul(a, b)

    def test_second_bind_raises(self):
        """A tape holds one parameter vector: binding another would overwrite
        the first one's slots in the flat gradient."""
        params = mz.ParamVector([("w", (2,))])
        tape = ad.Tape()
        tape.bind(params)
        with pytest.raises(ValueError, match="one parameter vector"):
            tape.bind(params)

    def test_seed_shape_checked(self):
        tape = quadratic_tape(1.0)
        with pytest.raises(ad.ShapeMismatch, match="seed"):
            tape.gradient(np.ones(3))

    def test_gradient_reusable_and_deterministic(self):
        model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(5,), num_classes=2, seed=9))
        X = np.random.default_rng(0).normal(size=(4, 4))
        y = np.array([0, 1, 1, 0])
        tape = ad.Tape()
        out = model.loss_mean(tape, X, y)
        g1 = tape.gradient(1.0, output=out)
        g2 = tape.gradient(1.0, output=out)
        np.testing.assert_array_equal(g1, g2)
        g3 = ad.loss_gradient(model, X, y)[1]
        np.testing.assert_array_equal(g1, g3)

    @pytest.mark.parametrize("factor", [2.0, 0.5, 4.0, -2.0, 1.0])
    def test_linearity_in_seed_for_binary_scales(self, factor):
        """backward(a * seed) == a * backward(seed) exactly for a = 2^k."""
        model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=3, seed=4))
        X = np.random.default_rng(1).normal(size=(2, 3))
        y = np.array([0, 2])
        tape = ad.Tape()
        out = model.loss_mean(tape, X, y)
        scaled = tape.gradient(factor, output=out)
        np.testing.assert_array_equal(scaled, factor * tape.gradient(1.0, output=out))


class TestPerSampleGradients:
    def setup_method(self):
        self.model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=3, seed=7))
        rng = np.random.default_rng(3)
        self.X = rng.normal(size=(3, 4))
        self.y = np.array([0, 1, 2])

    def test_single_sample_matches_direct_backward(self):
        grads = ad.per_sample_gradients(self.model, self.X[:1], self.y[:1])
        assert len(grads) == 1
        direct = ad.log_prob_gradient(self.model, self.X[:1], self.y[:1])
        np.testing.assert_array_equal(grads[0], direct)

    def test_duplicated_sample_gives_identical_gradients(self):
        X = np.repeat(self.X[:1], 2, axis=0)
        y = np.repeat(self.y[:1], 2)
        g = ad.per_sample_gradients(self.model, X, y)
        np.testing.assert_array_equal(g[0], g[1])

    def test_mean_matches_batch_gradient(self):
        grads = ad.per_sample_gradients(self.model, self.X, self.y)
        batch = ad.log_prob_gradient(self.model, self.X, self.y)
        np.testing.assert_allclose(np.mean(grads, axis=0), batch, atol=1e-12, rtol=0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ad.per_sample_gradients(self.model, self.X[:0], self.y[:0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            ad.per_sample_gradients(self.model, self.X[:1], np.array([7]))
