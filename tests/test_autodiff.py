"""Tape-level gradient checks: closed forms, independent recomputation, and
the central finite-difference oracle."""

import numpy as np
import pytest

from fishgrad import autodiff as ad
from fishgrad import models as mz


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
        params = mz.ParamVector([("logits", (2,))])
        tape = ad.Tape()
        bound = tape.bind(params)
        ad.nll(ad.log_softmax(bound["logits"]), 0)
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

    @pytest.mark.parametrize("spec", mz.zoo_specs(seed=11), ids=lambda s: s.kind)
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


DENSE_SPECS = [
    mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=1),
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=3, seed=2),
    mz.ModelSpec("mlp", input_dim=5, hidden=(7, 6), num_classes=3, seed=3,
                 activation="relu"),
    mz.ModelSpec("linear_regressor", input_dim=7, num_classes=0, seed=4),
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=2, seed=5),
    # DensePass sums fewer than 8 classes one by one, and more with numpy.
    mz.ModelSpec("mlp", input_dim=5, hidden=(8,), num_classes=10, seed=6),
]
DENSE_IDS = ["logreg", "mlp-tanh", "mlp-relu-2-hidden", "linear_regressor", "mlp-two-class",
             "mlp-ten-class"]


class TestDensePassMatchesTape:
    """The untaped dense path gives the tape's loss, gradient and outputs
    byte for byte."""

    @pytest.mark.parametrize("n", [1, 7, 32])  # 1/7 is inexact
    @pytest.mark.parametrize("spec", DENSE_SPECS, ids=DENSE_IDS)
    def test_loss_gradient_and_predictions(self, spec, n):
        model = mz.build(spec)
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, spec.input_dim))
        if spec.kind == "linear_regressor":
            y = rng.normal(size=n)
        else:
            y = rng.integers(0, spec.num_classes, size=n)
        assert model.dense_pass(X) is not None
        tape = ad.Tape()
        out = model.loss_mean(tape, X, y)
        taped = tape.gradient(1.0, output=out)
        value, grad = ad.loss_gradient(model, X, y)
        assert value == float(out.data)
        assert grad.tobytes() == taped.tobytes()

        tape = ad.Tape()
        bound = tape.bind(model.params)
        if spec.kind == "linear_regressor":
            expected = model._predict_tensor(tape, bound, X).data
        else:
            expected = np.argmax(model.logits_tensor(tape, bound, X).data, axis=1)
        got = model.predictions(X)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", DENSE_SPECS, ids=DENSE_IDS)
    def test_each_stacked_job_equals_its_own_pass(self, spec):
        """With a leading job axis, each job's loss and gradient are those of
        its own pass, byte for byte."""
        model = mz.build(spec)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 7, spec.input_dim))
        if spec.kind == "linear_regressor":
            y = rng.normal(size=(3, 7))
        else:
            y = rng.integers(0, spec.num_classes, size=(3, 7))
        block = model.params.data + rng.normal(scale=0.1, size=(3, model.num_params))
        values, grads = mz.DensePass(model, X, block).loss_gradient(y)
        for j in range(3):
            value, grad = mz.DensePass(model, X[j], block[j]).loss_gradient(y[j])
            assert value.tobytes() == values[j].tobytes()
            assert grad.tobytes() == grads[j].tobytes()

    def test_label_count_checked(self):
        model = mz.build(DENSE_SPECS[0])
        X = np.zeros((3, 6))
        with pytest.raises(ad.ShapeMismatch, match="nll"):
            ad.loss_gradient(model, X, [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            ad.loss_gradient(model, X, [0, 1, 3])


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
