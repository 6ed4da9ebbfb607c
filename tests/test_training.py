"""Masked training: frozen coordinates, optimizer arithmetic, early stop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fishgrad import autodiff as ad
from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import metrics as met
from fishgrad import models as mz
from fishgrad import search as sr
from fishgrad import training as tr

from support import zoo_specs


def blob_task(seed=0, n=200, dims=6, classes=2, noise=0.3):
    ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=n, dims=dims,
                                        classes=classes, noise=noise, seed=seed))
    return dio.train_valid_split(ds, 0.2, seed=seed)


def full_mask(model):
    return fi.Mask(np.arange(model.num_params), 1.0, model.num_params,
                   model.content_hash())


class TestSgdStep:
    def test_hand_quadratic_step(self):
        """theta0=1, loss=theta^2 (grad 2), lr=0.1 -> 0.8 after one step."""
        params = np.array([1.0])
        tr.sgd_step(params, np.array([2.0]), lr=0.1, selected=np.array([0]))
        assert params[0] == 0.8

    def test_untouched_outside_selection(self):
        params = np.array([1.0, 2.0, 3.0])
        tr.sgd_step(params, np.ones(3), lr=0.5, selected=np.array([1]))
        np.testing.assert_array_equal(params, [1.0, 1.5, 3.0])


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([0.7, -0.3])
        state = tr.AdamState.for_size(2)
        tr.adam_step(params, np.zeros(2), state, lr=0.1, selected=np.arange(2))
        np.testing.assert_array_equal(params, [0.7, -0.3])

    def test_hand_evaluated_first_step(self):
        """Straight-line recurrence: g=1, t=1, lr=1e-3."""
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expected = -lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        params = np.array([0.0])
        tr.adam_step(params, np.array([1.0]), tr.AdamState.for_size(1), lr=lr,
                     selected=np.array([0]))
        assert params[0] == expected
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_identical_coordinates_update_identically(self):
        params = np.array([0.5, 0.5])
        state = tr.AdamState.for_size(2)
        for _ in range(3):
            tr.adam_step(params, np.array([0.2, 0.2]), state, lr=0.01, selected=np.arange(2))
        assert params[0] == params[1]

    def test_matches_textbook_recurrence_byte_for_byte(self):
        """25 steps against the recurrence written out coordinate by
        coordinate in Python floats, with random gradients, non-default
        betas and eps and a strict subset selected; the rest never moves.
        The parameters start near zero, so that a last-bit change in an
        update, such as lr (m_hat / d) for (lr m_hat) / d, shows in them."""
        rng = np.random.default_rng(3)
        lr, (b1, b2), eps = 3e-3, (0.8, 0.95), 1e-6
        params = rng.normal(scale=1e-3, size=12)
        start = params.copy()
        selected = np.array([0, 2, 3, 7, 11])
        state = tr.AdamState.for_size(len(selected))
        theta = [float(params[i]) for i in selected]
        m, v = [0.0] * len(selected), [0.0] * len(selected)
        for t in range(1, 26):
            grads = rng.normal(scale=2.0, size=12)
            tr.adam_step(params, grads, state, lr, (b1, b2), eps, selected=selected)
            for c, i in enumerate(selected):
                g = float(grads[i])
                m[c] = b1 * m[c] + (1 - b1) * g
                v[c] = b2 * v[c] + (1 - b2) * (g * g)
                m_hat = m[c] / (1 - b1 ** t)
                v_hat = v[c] / (1 - b2 ** t)
                theta[c] -= lr * m_hat / (math.sqrt(v_hat) + eps)
            assert params[selected].tobytes() == np.array(theta).tobytes()
            assert (state.m.tobytes(), state.v.tobytes()) == (np.array(m).tobytes(),
                                                              np.array(v).tobytes())
        assert state.t == 25
        unselected = np.setdiff1d(np.arange(12), selected)
        assert params[unselected].tobytes() == start[unselected].tobytes()


class TestEarlyStop:
    def test_monotonic_improvement_never_stops(self):
        history = [0.1 * i for i in range(1, 40)]
        for upto in range(1, len(history) + 1):
            assert not tr.early_stop_check(history[:upto], patience=10, threshold=0.3)

    def test_flat_history_stops_at_epoch_eleven(self):
        """Flat 0.5: counter reaches 10 at the 11th entry, 0.5 > 0.3 -> stop."""
        history = [0.5] * 11
        assert not tr.early_stop_check(history[:10], patience=10, threshold=0.3)
        assert tr.early_stop_check(history, patience=10, threshold=0.3)

    def test_below_threshold_never_stops(self):
        history = [0.2] * 50
        for upto in range(1, 51):
            assert not tr.early_stop_check(history[:upto], patience=10, threshold=0.3)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            tr.early_stop_check([], patience=10, threshold=0.3)

    def test_late_improvement_resets_counter(self):
        history = [0.5] * 10 + [0.6] + [0.6] * 9
        assert not tr.early_stop_check(history, patience=10, threshold=0.3)
        assert tr.early_stop_check(history + [0.6], patience=10, threshold=0.3)


class TestTrainMasked:
    def test_frozen_coordinates_bit_identical(self):
        train, valid = blob_task(seed=1, classes=3)
        model = mz.build(mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=3, seed=2))
        diag = fi.empirical_fisher(model, train, np.arange(16))
        mask = fi.top_k_mask(diag, sparsity=0.5)
        before = model.params.data.copy()
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=3, seed=0)
        tr.train_masked(model, mask, train, valid, cfg)
        untouched = np.setdiff1d(np.arange(model.num_params), mask.selected)
        np.testing.assert_array_equal(model.params.data[untouched], before[untouched])
        assert not np.array_equal(model.params.data[mask.selected],
                                  before[mask.selected])

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_full_mask_equals_dense_bit_for_bit(self, optimizer):
        train, valid = blob_task(seed=3)
        cfg = tr.TrainConfig(optimizer=optimizer, learning_rate=0.02,
                             max_epochs=4, seed=5)
        spec = mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=4)
        masked_model = mz.build(spec)
        dense_model = mz.build(spec)
        rep_masked = tr.train_masked(masked_model, full_mask(masked_model),
                                     train, valid, cfg)
        rep_dense = tr.train_masked(dense_model, None, train, valid, cfg)
        np.testing.assert_array_equal(masked_model.params.data, dense_model.params.data)
        assert rep_masked.train_losses == rep_dense.train_losses
        assert rep_masked.final_hash == rep_dense.final_hash

    def test_seed_determinism(self):
        train, valid = blob_task(seed=6)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=4, seed=9)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(5,), num_classes=2, seed=7)
        reports = []
        for _ in range(2):
            model = mz.build(spec)
            reports.append(tr.train_masked(model, None, train, valid, cfg))
        assert reports[0].train_losses == reports[1].train_losses
        assert reports[0].val_metrics == reports[1].val_metrics
        assert reports[0].final_hash == reports[1].final_hash

    def test_mask_size_mismatch_rejected(self):
        train, valid = blob_task(seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=0))
        bad = fi.Mask(np.array([0]), 0.1, model.num_params + 5)
        with pytest.raises(ValueError, match="covers"):
            tr.train_masked(model, bad, train, valid, tr.TrainConfig())

    def test_mask_hash_mismatch_rejected(self):
        train, valid = blob_task(seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=0))
        bad = fi.Mask(np.array([0]), 0.1, model.num_params, model_hash="deadbeef")
        with pytest.raises(ValueError, match="snapshot"):
            tr.train_masked(model, bad, train, valid, tr.TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        ds = dio.generate(dio.SyntheticSpec("linear_regression", n=40, dims=3,
                                            noise=0.0, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        model = mz.build(mz.ModelSpec("linear_regressor", input_dim=3, num_classes=0, seed=1))
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=1e308, max_epochs=5,
                             batch_size=8, seed=0)
        with pytest.raises(tr.TrainingDiverged, match="non-finite loss"):
            tr.train_masked(model, None, train, valid, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_after_last_step_abort(self):
        """One SGD step that overflows every coordinate is the epoch's last:
        no later loss sees it, so the parameters themselves are checked."""
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=200, dims=6,
                                            classes=2, noise=1.0, seed=0))
        ds = dio.Dataset(ds.inputs * 100, ds.labels, ds.task, ds.num_classes)
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=1))
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=1e308, batch_size=512,
                             max_epochs=1)
        with pytest.raises(tr.TrainingDiverged, match="non-finite parameters") as info:
            tr.train_masked(model, None, train, valid, cfg)
        assert (info.value.epoch, info.value.batch) == (1, 1)

    def test_metric_checked_before_first_step(self, monkeypatch):
        """A metric the head or the validation labels cannot take, or a
        group's job seed below 0, fails before any training step."""
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        for step_source in (mz.DensePass, mz.TapePass):
            monkeypatch.setattr(step_source, "loss_gradient", no_step)
        train, valid = blob_task(seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=0))
        with pytest.raises(ValueError, match="incompatible"):
            tr.train_masked(model, None, train, valid, tr.TrainConfig(metric="pearson"))
        train3, valid3 = blob_task(seed=0, classes=3)
        model3 = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0))
        for metric in ("mcc", "f1", "combined"):
            with pytest.raises(ValueError, match="needs a binary head"):
                tr.train_masked(model3, None, train3, valid3, tr.TrainConfig(metric=metric))
        ds = dio.generate(dio.SyntheticSpec("linear_regression", n=40, dims=3, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        flat = dio.Dataset(valid.inputs, np.full(len(valid), 1.5), "regression")
        reg = mz.build(mz.ModelSpec("linear_regressor", input_dim=3, num_classes=0, seed=1))
        with pytest.raises(ValueError, match="constant labels"):
            tr.train_masked(reg, None, train, flat, tr.TrainConfig())
        with pytest.raises(ValueError, match="seed must be at least 0 and an integer, got -1"):
            tr.train_group([(reg, None, 0), (reg, None, -1)], train, valid, tr.TrainConfig())

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_whole_model_run_stops_early_as_the_reference_does(self, kind):
        """Dense training steps the whole model: it stops early where the
        full-model loop does, with the same readings and parameters."""
        train, valid = blob_task(seed=8, classes=3, noise=1.0)
        spec = mz.ModelSpec(kind, input_dim=6, hidden=(12,) if kind == "mlp" else (),
                            num_classes=3, seed=2)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=12, patience=1,
                             stop_threshold=0.0, seed=3)
        model, ref = mz.build(spec), mz.build(spec)
        report = tr.train_masked(model, None, train, valid, cfg)
        losses, readings = reference_fine_tune(ref, None, train, valid, cfg)
        assert report.stopped_early and report.epochs_run < cfg.max_epochs
        assert (report.train_losses, report.val_metrics) == (losses, readings)
        assert model.params.data.tobytes() == ref.params.data.tobytes()

    def test_report_shape(self):
        train, valid = blob_task(seed=2)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=1))
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=6, seed=0)
        report = tr.train_masked(model, None, train, valid, cfg)
        assert report.epochs_run <= cfg.max_epochs
        assert len(report.train_losses) == report.epochs_run
        assert len(report.val_metrics) == report.epochs_run
        assert report.final_hash == model.content_hash()

    def test_separable_task_halves_training_loss(self):
        """Smoke: 50% mask on a separable task cuts loss by half in 20 epochs."""
        train, valid = blob_task(seed=11, n=240, noise=0.1)
        model = mz.build(mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=3))
        mask = fi.top_k_mask(fi.empirical_fisher(model, train, np.arange(32)),
                             sparsity=0.5)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=20, patience=50, seed=1)
        report = tr.train_masked(model, mask, train, valid, cfg)
        assert report.train_losses[-1] <= 0.5 * report.train_losses[0]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(patience=0),
        dict(optimizer="adagrad"),
        dict(metric="acuracy"),
        dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")),
        dict(eps=-1.0),
        dict(eps=0.0),
        dict(eps=float("nan")),
        dict(eps=float("inf")),
        dict(max_epochs=0),
        dict(betas=(1.0, 0.999)),          # 0/0 in Adam's bias correction
        dict(betas=(0.9, 1.0)),
        dict(betas=(-0.1, 0.999)),
        dict(betas=(0.9, float("nan"))),
        dict(betas=(0.9, float("inf"))),
        dict(betas=(0.9,)),
        dict(betas=(0.9, 0.99, 0.999)),
        dict(betas=0.9),
        dict(betas=("0.9", "0.999")),
        dict(batch_size=2.5),
        dict(max_epochs=3.0),
        dict(patience=1.5),
        dict(seed=-1),
        dict(seed=0.5),
        dict(learning_rate="0.1"),
        dict(eps="1e-8"),
        dict(stop_threshold="x"),
        dict(stop_threshold=None),
        # Every numeric field: a bool, a string, NaN and inf; a fraction for
        # the integers. Each bound below is already a case above.
        *[{name: bad} for name in ("learning_rate", "eps", "stop_threshold", "batch_size",
                                   "max_epochs", "patience", "seed")
          for bad in (True, "x", math.nan, math.inf)],
        *[{name: 2.5} for name in ("max_epochs", "patience", "seed")],
        dict(betas=(False, 0.999)),
        dict(betas=(0.9, "x")),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            tr.TrainConfig(**kwargs)

    def test_edge_values_accepted(self):
        cfg = tr.TrainConfig(betas=[0.0, 0.0], batch_size=np.int64(1), seed=0)
        assert cfg.betas == (0.0, 0.0)
        assert tr.TrainConfig(betas=(np.float64(0.5), 0.25)).betas == (0.5, 0.25)
        tr.TrainConfig(learning_rate=1, eps=np.float64(1e-6), stop_threshold=np.float32(0.5))
        assert tr.TrainConfig(stop_threshold=-1).stop_threshold == -1


def reference_fine_tune(model, selected, train, valid, cfg):
    """The full-model loop: every step runs ``ad.loss_gradient`` on the whole
    model and every epoch scores the whole model with ``metrics.score``.
    ``selected=None`` steps every coordinate."""
    if selected is None:
        selected = np.arange(model.num_params)
    metric = met.check_metric(cfg.metric, model, valid)
    rng = np.random.default_rng(cfg.seed)
    state = tr.AdamState.for_size(len(selected))
    losses, readings = [], []
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(train))
        batch_losses = []
        for bi, start in enumerate(range(0, len(train), cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            value, grad = ad.loss_gradient(model, train.inputs[idx], train.labels[idx])
            if not np.isfinite(value):
                raise tr.TrainingDiverged(epoch + 1, bi + 1, value)
            if cfg.optimizer == "sgd":
                tr.sgd_step(model.params.data, grad, cfg.learning_rate, selected)
            else:
                tr.adam_step(model.params.data, grad, state, cfg.learning_rate,
                             cfg.betas, cfg.eps, selected=selected)
            batch_losses.append(value)
        losses.append(float(np.mean(batch_losses)))
        readings.append(met.score(metric, model, valid))
        if tr.early_stop_check(readings, cfg.patience, cfg.stop_threshold):
            break
    return losses, readings


def layer_mask(model, where):
    """Selected indices for a mask that reaches the named dense layers."""
    last = len(model.dense_layers()) - 1
    seg = model.params.segment
    if where == "dense":
        return None
    if where == "output":
        sel = np.arange(seg(f"W{last}").offset, model.num_params, 2)
    elif where == "middle":
        sel = np.arange(seg("W1").offset, seg("W2").offset, 3)
    elif where == "spanning":  # the last hidden layer's bias and the output layer
        sel = np.arange(seg(f"b{last - 1}").offset, model.num_params, 2)
    else:  # "layer0": one coordinate of W0 plus the output layer
        sel = np.concatenate([[1], np.arange(seg(f"W{last}").offset, model.num_params, 2)])
    return fi.Mask(sel, len(sel) / model.num_params, model.num_params, model.content_hash())


FROZEN_CASES = [(hidden, activation, where)
                for hidden in [(8,), (6, 5)]
                for activation in ["tanh", "relu"]
                for where in ["output", "middle", "spanning", "layer0", "dense"]
                if where != "middle" or len(hidden) == 2]


class TestFrozenLayers:
    """Layers below the first one a mask reaches run ahead of training; the
    fine-tune must equal the full-model loop byte for byte."""

    def assert_matches_reference(self, monkeypatch, spec, where, train, valid, cfg):
        """Also every step's loss, and its gradient on the trained layers:
        what each optimizer call got, with the loss of the pass before it."""
        passes, steps = [], []
        real_loss_gradient = mz.DensePass.loss_gradient

        def recording(self, y):
            passes.append(real_loss_gradient(self, y))
            return passes[-1]

        def stepping(real_step):
            def step(params, grads, *args, **kwargs):
                steps.append((np.ravel(passes[-1][0])[0], grads.copy()))
                return real_step(params, grads, *args, **kwargs)
            return step

        monkeypatch.setattr(mz.DensePass, "loss_gradient", recording)
        for name in ("adam_step", "sgd_step"):
            monkeypatch.setattr(tr, name, stepping(getattr(tr, name)))
        model, ref_model = mz.build(spec), mz.build(spec)
        mask = layer_mask(model, where)
        report = tr.train_masked(model, mask, train, valid, cfg)
        head_steps, steps = steps, []
        losses, readings = reference_fine_tune(
            ref_model, None if mask is None else mask.selected, train, valid, cfg)
        assert [v for v, _ in head_steps] == [v for v, _ in steps]
        for (_, head_grad), (_, grad) in zip(head_steps, steps):
            assert head_grad.tobytes() == grad[len(grad) - len(head_grad):].tobytes()
        assert report.train_losses == losses
        assert report.val_metrics == readings
        assert model.params.data.tobytes() == ref_model.params.data.tobytes()
        assert report.final_hash == ref_model.content_hash()

    @pytest.mark.parametrize("batch_size", [32, 7])
    @pytest.mark.parametrize("hidden,activation,where", FROZEN_CASES)
    def test_matches_full_model_loop(self, hidden, activation, where, batch_size,
                                     monkeypatch):
        """160 training rows: five full batches of 32, or 22 of 7 and a
        short batch of 6."""
        train, valid = blob_task(seed=4, classes=3)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=hidden, num_classes=3,
                            seed=5, activation=activation)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=3, batch_size=batch_size,
                             seed=6)
        self.assert_matches_reference(monkeypatch, spec, where, train, valid, cfg)

    @pytest.mark.parametrize("hidden,dims,batch_size", [
        ((250, 250), 6, 7),    # 7 x 250 @ 250 x 250 products
        ((300,), 8, 480),      # one batch of every row, 480 x 8 @ 8 x 300
    ])
    def test_matches_on_wide_layers(self, hidden, dims, batch_size, monkeypatch):
        """Shapes whose product rows depend on the batch's size or on a
        row's position with some BLAS kernels (OpenBLAS on AVX-512 among
        them)."""
        train, valid = blob_task(seed=3, n=600, dims=dims)
        spec = mz.ModelSpec("mlp", input_dim=dims, hidden=hidden, num_classes=2, seed=4)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=batch_size,
                             seed=5)
        self.assert_matches_reference(monkeypatch, spec, "output", train, valid, cfg)

    @pytest.mark.parametrize("n_fit", [1, 16, 33, 64])
    def test_matches_on_a_training_subset(self, n_fit, monkeypatch):
        """Small training splits: one row, no full batch, a one-row short
        batch (a one-row product takes another BLAS path), and only full
        batches."""
        train, valid = blob_task(seed=7)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(12,), num_classes=2, seed=8)
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=0.1, max_epochs=4, seed=9)
        self.assert_matches_reference(monkeypatch, spec, "output", train.subset(np.arange(n_fit)),
                                      valid, cfg)

    def test_grid_on_training_subsets_matches_full_model_loop(self, monkeypatch):
        """Every cell and trace of an ird grid, whose masks come from
        training subsets and whose fine-tunes use the whole training split,
        equals the grid whose planned jobs all run through the full-model
        loop. The grid passes each seed's planned model for all its jobs,
        and ``train_group`` never writes a shared model, so the reference
        fine-tunes a clone of it."""
        ds = dio.generate(dio.SyntheticSpec("xor_ring", n=160, dims=4, noise=0.3, seed=3))
        task = sr.Task(*dio.train_valid_split(ds, 0.25, seed=0))
        spec = sr.GridSpec((0.2, 0.1, 0.05), (40, 9, 1), "ird", (0, 1))
        model_spec = mz.ModelSpec("mlp", input_dim=4, hidden=(16,), num_classes=2, seed=1)
        cfg = sr.IRDConfig(train=tr.TrainConfig(learning_rate=0.05, max_epochs=3))
        result = sr.run_grid(spec, task, model_spec, cfg).to_json()
        referenced = []

        def reference_group(jobs, train_ds, valid_ds, run_cfg):
            outcomes = []
            for model, mask, seed in jobs:
                model = model.clone()
                try:
                    losses, readings = reference_fine_tune(model, mask.selected, train_ds,
                                                           valid_ds, replace(run_cfg, seed=seed))
                except tr.TrainingDiverged as exc:
                    outcomes.append(exc)
                    continue
                outcomes.append(tr.TrainReport(len(losses), losses, readings, False,
                                               model.content_hash()))
            referenced.extend(jobs)
            return outcomes

        monkeypatch.setattr(sr.tr, "train_group", reference_group)
        assert result == sr.run_grid(spec, task, model_spec, cfg).to_json()
        assert len(referenced) == len(result["cells"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_frozen_layer_overflow_diverges_where_the_full_model_does(self):
        """A training row that overflows the frozen relu layer to inf gives
        a non-finite loss at the same epoch and batch, not an input error."""
        train, valid = blob_task(seed=2)
        inputs = train.inputs.copy()
        inputs[100] = 1e308
        train = dio.Dataset(inputs, train.labels, train.task, train.num_classes)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=3,
                            activation="relu")
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2, seed=1)
        model, ref_model = mz.build(spec), mz.build(spec)
        for m in (model, ref_model):
            m.params.view("W0")[...] = 1.0
        mask = layer_mask(model, "output")
        with pytest.raises(tr.TrainingDiverged) as ref:
            reference_fine_tune(ref_model, mask.selected, train, valid, cfg)
        with pytest.raises(tr.TrainingDiverged) as info:
            tr.train_masked(model, mask, train, valid, cfg)
        assert (info.value.epoch, info.value.batch) == (ref.value.epoch, ref.value.batch)
        assert ref.value.batch > 1
        assert model.params.data.tobytes() == ref_model.params.data.tobytes()

    @pytest.mark.parametrize("hidden", [(8,), (6, 5)])
    def test_frozen_layers_run_once_per_split(self, hidden, monkeypatch):
        """With an output-only mask, each hidden layer sees the 160 training
        rows once, the first batch again (checked against the full model's
        arithmetic) and the 40 validation rows once, however many epochs
        run; the output layer runs at every step and every validation. A
        group of one steps the pass its check would compare against, so no
        pass runs twice."""
        rows_by_layer = []
        real_layer = mz._dense_layer

        def counting_layer(a, W, b, activation):
            out = real_layer(a, W, b, activation)
            rows_by_layer.append((W.shape[-2:], out.size // out.shape[-1]))
            return out

        monkeypatch.setattr(mz, "_dense_layer", counting_layer)
        train, valid = blob_task(seed=5)
        model = mz.build(mz.ModelSpec("mlp", input_dim=6, hidden=hidden, num_classes=2,
                                      seed=1))
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=4, patience=10, seed=2)
        report = tr.train_masked(model, layer_mask(model, "output"), train, valid, cfg)
        assert report.epochs_run == 4
        rows = [sum(n for shape, n in rows_by_layer if shape == model.params.view(w).shape)
                for w, _ in model.dense_layers()]
        assert rows == [160 + 32 + 40] * len(hidden) + [4 * (160 + 40)]

    @pytest.mark.parametrize("kind", ["logreg", "tiny_attention", "linear_regressor",
                                      "mlp-layer0", "mlp-dense"])
    def test_full_model_path_when_layer_zero_trains(self, kind, monkeypatch):
        """A mask that reaches layer 0 trains the whole model: a model with
        dense layers steps the stacked pass from layer 0, byte for byte as
        the full-model loop does; tiny_attention alone steps on the tape."""
        whole, real_step = [], mz.TapePass.loss_gradient

        def spy(self, y):
            whole.append(y)
            return real_step(self, y)

        monkeypatch.setattr(mz.TapePass, "loss_gradient", spy)
        spec = next(s for s in zoo_specs(seed=1) if s.kind == kind.split("-")[0])
        model, ref = mz.build(spec), mz.build(spec)
        if kind.startswith("mlp"):
            mask = layer_mask(model, kind[4:])
        else:
            mask = fi.Mask(np.arange(0, model.num_params, 2), 0.5, model.num_params)
        if spec.kind == "tiny_attention":
            ds = dio.generate(dio.SyntheticSpec("token_topic", n=40, vocab=24,
                                                seq_len=6, seed=0))
        elif spec.kind == "linear_regressor":
            ds = dio.generate(dio.SyntheticSpec("linear_regression", n=40, dims=7, seed=0))
        else:
            ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=40, dims=spec.input_dim,
                                                classes=spec.num_classes, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=8)
        report = tr.train_masked(model, mask, train, valid, cfg)
        on_tape = bool(whole)  # the reference's own steps come after
        losses, readings = reference_fine_tune(ref, None if mask is None else mask.selected,
                                               train, valid, cfg)
        assert (report.train_losses, report.val_metrics) == (losses, readings)
        assert model.params.data.tobytes() == ref.params.data.tobytes()
        assert on_tape == (spec.kind == "tiny_attention")


def output_mask(model, step):
    """Every ``step``-th coordinate of the output layer."""
    last = len(model.dense_layers()) - 1
    sel = np.arange(model.params.segment(f"W{last}").offset, model.num_params, step)
    return fi.Mask(sel, len(sel) / model.num_params, model.num_params, model.content_hash())


class TestGroupLoop:
    """Fine-tunes that share their frozen layers run as one stacked loop
    (``train_group``); each job equals its solo run byte for byte."""

    def run_group(self, monkeypatch, build, masks, train, valid, cfg, seeds):
        """Run the jobs, mask i with seed i, as one group under ``cfg`` and
        each alone, through ``train_masked`` and through the full-model
        loop, and compare them all; returns the outcomes and the group sizes
        ``_train_heads`` saw, with whether each passed its first-batch check."""
        groups = []
        real_heads = tr._train_heads

        def spy(models, *args):
            done = real_heads(models, *args)
            groups.append((len(models), done is not None))
            return done

        monkeypatch.setattr(tr, "_train_heads", spy)
        models = [build() for _ in seeds]
        outcomes = tr.train_group([(model, mask(models[0]), seed) for model, mask, seed
                                   in zip(models, masks, seeds)], train, valid, cfg)
        seen = list(groups)
        for model, mask, seed, outcome in zip(models, masks, seeds, outcomes):
            run_cfg = replace(cfg, seed=seed)
            solo, ref = build(), build()
            selected = mask(solo).selected
            if isinstance(outcome, tr.TrainingDiverged):
                with pytest.raises(tr.TrainingDiverged) as alone:
                    tr.train_masked(solo, mask(solo), train, valid, run_cfg)
                with pytest.raises(tr.TrainingDiverged) as full:
                    reference_fine_tune(ref, selected, train, valid, run_cfg)
                where = (outcome.epoch, outcome.batch, outcome.args)
                assert where == (alone.value.epoch, alone.value.batch, alone.value.args)
                assert where == (full.value.epoch, full.value.batch, full.value.args)
            else:
                assert outcome == tr.train_masked(solo, mask(solo), train, valid, run_cfg)
                losses, readings = reference_fine_tune(ref, selected, train, valid, run_cfg)
                assert (outcome.train_losses, outcome.val_metrics) == (losses, readings)
            assert model.params.data.tobytes() == solo.params.data.tobytes()
            assert model.params.data.tobytes() == ref.params.data.tobytes()
        return outcomes, seen

    def test_passes_are_built_per_group_not_per_batch(self, monkeypatch):
        """A group builds its ``DensePass`` once, one per job for the
        first-batch check and one per epoch for the validation read (a job
        that left before the last epoch would add one): 10 for 7 jobs over 2
        epochs of 10 batches, not one per batch."""
        built = []
        real_init = mz.DensePass.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(mz.DensePass, "__init__", spy)
        train, valid = blob_task(seed=2)
        assert len(train) == 160
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=1)
        mask = output_mask(mz.build(spec), 1)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=16)
        outcomes = tr.train_group([(mz.build(spec), mask, s) for s in range(7)], train, valid,
                                  cfg)
        assert [o.epochs_run for o in outcomes] == [2] * 7
        assert len(built) == 1 + 7 + 2

    def test_attention_jobs_stack(self, monkeypatch):
        """tiny_attention jobs with different seeds and masks run as one group
        through ``TapePass``, with no rerun as groups of one."""
        ds = dio.generate(dio.SyntheticSpec("token_topic", n=40, vocab=24, seq_len=6, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        spec = next(s for s in zoo_specs(seed=1) if s.kind == "tiny_attention")
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=8), range(3)
        masks = [lambda m, s=s: fi.Mask(np.arange(0, m.num_params, s), 1 / s, m.num_params)
                 for s in (1, 2, 3)]
        outcomes, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train,
                                          valid, cfg, seeds)
        assert groups == [(3, True)]
        assert len({o.final_hash for o in outcomes}) == 3

    def test_xor_head_with_a_short_last_batch(self, monkeypatch):
        """The acceptance xor task's 8-400-2 head at batch 32: 450 training
        rows, so each epoch ends on a 2-row batch."""
        ds = dio.generate(dio.SyntheticSpec("xor_ring", n=600, dims=8, noise=0.35, seed=12))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        assert len(train) % 32 == 2
        spec = mz.ModelSpec("mlp", input_dim=8, hidden=(400,), num_classes=2, seed=3)
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=2), range(5)
        masks = [lambda m, s=s: output_mask(m, s) for s in (1, 2, 3, 7, 40)]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train, valid,
                                   cfg, seeds)
        assert groups == [(5, True)]

    def test_wide_layers_at_batch_seven(self, monkeypatch):
        train, valid = blob_task(seed=3, n=600, dims=6)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(250, 250), num_classes=2, seed=4)
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=1, batch_size=7), range(3)
        masks = [lambda m, s=s: output_mask(m, s) for s in (1, 2, 5)]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train, valid,
                                   cfg, seeds)
        assert groups[0][0] == 3

    def test_head_with_a_hidden_layer(self, monkeypatch):
        """Masks that start in the middle layer of a 2-hidden-layer MLP train
        a head with a hidden layer, one group; an output-only mask is its own."""
        train, valid = blob_task(seed=4, classes=3)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(6, 5), num_classes=3, seed=5,
                            activation="relu")
        wheres = ["middle", "spanning", "output", "middle"]
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=3, batch_size=7), range(4)
        masks = [lambda m, w=w: layer_mask(m, w) for w in wheres]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train, valid,
                                   cfg, seeds)
        assert groups == [(3, True), (1, True)]

    def test_jobs_stop_early_at_different_epochs(self, monkeypatch):
        train, valid = blob_task(seed=8, classes=3, noise=1.0)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(12,), num_classes=3, seed=2)
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=12, patience=1,
                                    stop_threshold=0.0), range(6)
        masks = [lambda m, s=s: output_mask(m, s) for s in (1, 2, 3, 4, 5, 6)]
        outcomes, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train,
                                          valid, cfg, seeds)
        assert groups == [(6, True)]
        assert all(o.stopped_early for o in outcomes)
        assert len({o.epochs_run for o in outcomes}) > 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_job_diverges_and_its_group_mates_go_on(self, monkeypatch):
        """Hidden unit 0 reads about 1e160 on half the rows and its output
        weights start at zero: the job whose mask holds them overflows at
        its second step; the others never move them."""
        train, valid = blob_task(seed=6)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=7,
                            activation="relu")

        def build():
            model = mz.build(spec)
            model.params.view("W0")[:, 0] = 1e160
            model.params.view("W1")[0] = 0.0
            return model

        def rest_of_output(model):  # output layer without hidden unit 0's weights
            sel = output_mask(model, 1).selected[2:]
            return fi.Mask(sel, 0.5, model.num_params, model.content_hash())

        cfg, seeds = tr.TrainConfig(optimizer="sgd", learning_rate=0.05, max_epochs=3), range(3)
        outcomes, groups = self.run_group(
            monkeypatch, build, [rest_of_output, lambda m: output_mask(m, 1), rest_of_output],
            train, valid, cfg, seeds)
        assert groups == [(3, True)]
        assert isinstance(outcomes[1], tr.TrainingDiverged)
        assert (outcomes[1].epoch, outcomes[1].batch) == (1, 2)
        assert [o.epochs_run for o in (outcomes[0], outcomes[2])] == [3, 3]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parameters_that_overflow_on_an_epochs_last_step_end_one_job(self):
        """One step per epoch, so no loss check sees the step that takes
        the output layer to inf: the parameters are checked after the epoch.
        Hidden unit 0 is dead on every row, so the jobs whose masks hold only
        its output weights never move and go on to their second epoch."""
        train, valid = blob_task(seed=6)
        train = dio.Dataset(train.inputs * 100, train.labels, train.task, train.num_classes)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=7,
                            activation="relu")

        def build():
            model = mz.build(spec)
            model.params.view("W0")[:, 0] = 0.0
            model.params.view("b0")[0] = -1.0
            return model

        def dead_unit(model):
            sel = model.params.segment("W1").offset + np.arange(2)
            return fi.Mask(sel, 2 / model.num_params, model.num_params, model.content_hash())

        masks = [dead_unit, lambda m: output_mask(m, 1), dead_unit]
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=1e308, batch_size=512, max_epochs=2)
        models = [build() for _ in masks]
        jobs = [(m, mask(m), seed) for seed, (mask, m) in enumerate(zip(masks, models))]
        outcomes = tr.train_group(jobs, train, valid, cfg)
        assert isinstance(outcomes[1], tr.TrainingDiverged)
        assert "non-finite parameters" in str(outcomes[1])
        assert (outcomes[1].epoch, outcomes[1].batch) == (1, 1)
        for j in (0, 2):
            ref = build()
            losses, readings = reference_fine_tune(ref, dead_unit(ref).selected, train, valid,
                                                   replace(cfg, seed=j))
            assert outcomes[j].epochs_run == 2
            assert (outcomes[j].train_losses, outcomes[j].val_metrics) == (losses, readings)
            assert models[j].params.data.tobytes() == ref.params.data.tobytes()

    @pytest.mark.parametrize("broken", ["frozen rows", "stacked step", "later job's rows",
                                        "frozen rows and stacked input"])
    def test_a_failed_first_batch_check_runs_the_jobs_alone(self, broken, monkeypatch):
        """With the stacked step's gradient one ulp off, the group fails the
        check and every job runs again as a stacked group of one, which steps
        its own pass and passes. With only the cached frozen rows one ulp off,
        the group recomputes them for every batch, the first one included,
        and stays stacked: also when only rows that the second job's first
        batch draws, and the first job's does not, are off. With the stacked
        rows recomputed from the inputs one ulp off as well, the group fails
        the check and its jobs run alone."""
        train, valid = blob_task(seed=9)
        if broken == "later job's rows":
            first = [np.random.default_rng(s).permutation(len(train))[:32] for s in (0, 1)]
            later = np.setdiff1d(first[1], first[0])
            assert len(later)
            real_rows, calls = tr._frozen_rows, []

            def off_rows(*args):  # only the group's rows: a lone job 0 would not see them
                rows = real_rows(*args)
                if not calls:
                    rows[later] = np.nextafter(rows[later], np.inf)
                calls.append(args)
                return rows

            monkeypatch.setattr(tr, "_frozen_rows", off_rows)
        else:
            one_ulp_off(broken.removesuffix(" and stacked input"), monkeypatch)
        stacked_inputs, real_input = [], mz.Model.layer_input

        def layer_input(self, X, k):
            if np.ndim(X) != 3:
                return real_input(self, X, k)
            stacked_inputs.append(len(X))
            if broken.endswith("stacked input"):
                return np.nextafter(real_input(self, X, k), np.inf)
            return real_input(self, X, k)

        monkeypatch.setattr(mz.Model, "layer_input", layer_input)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=1)
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=2), range(3)
        masks = [lambda m, s=s: output_mask(m, s) for s in (1, 2, 3)]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train, valid,
                                   cfg, seeds)
        assert len(train) == 5 * 32
        if broken == "stacked step":
            assert groups == [(3, False), (1, True), (1, True), (1, True)]
            assert stacked_inputs == []
        elif broken.endswith("stacked input"):
            assert groups == [(3, False), (1, True), (1, True), (1, True)]
            assert stacked_inputs == [3]
        else:  # 2 epochs of 5 batches, each from the inputs
            assert groups == [(3, True)]
            assert stacked_inputs == [3] * 10

    @pytest.mark.parametrize("broken", [None, "stacked step"])
    def test_a_shared_model_is_read_not_written(self, broken, monkeypatch):
        """A model passed for several jobs is bit-identical after
        ``train_group``, and each job's report, ``final_hash`` included, is
        the one it gets on a clone of its own; a model passed for one job is
        fine-tuned in place. The same holds when the group fails its check
        and its jobs, shared model and all, run again as groups of one."""
        if broken:
            one_ulp_off(broken, monkeypatch)
        train, valid = blob_task(seed=2)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=1)
        shared, single = mz.build(spec), mz.build(spec)
        before = shared.params.data.tobytes()
        models = [shared, shared, single, shared]
        masks = [output_mask(shared, 1), None, output_mask(shared, 2), output_mask(shared, 3)]
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2)
        outcomes = tr.train_group([(m, mask, s) for s, (m, mask) in enumerate(zip(models, masks))],
                                  train, valid, cfg)
        assert shared.params.data.tobytes() == before
        for seed, (model, mask, outcome) in enumerate(zip(models, masks, outcomes)):
            clone = mz.build(spec)
            assert outcome == tr.train_masked(clone, mask, train, valid, replace(cfg, seed=seed))
            assert outcome.final_hash == clone.content_hash()
            if model is single:
                assert model.params.data.tobytes() == clone.params.data.tobytes()
        assert single.params.data.tobytes() != before

    @pytest.mark.parametrize("broken", ["frozen rows", "stacked step"])
    def test_a_group_of_one_passes_its_check(self, broken, monkeypatch):
        """A group of one steps its own 2-D batch, taking the cached frozen
        rows only once they pass the check, so neither fault reaches it."""
        one_ulp_off(broken, monkeypatch)
        train, valid = blob_task(seed=9)
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=2, seed=1)
        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=16), [3]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec),
                                   [lambda m: output_mask(m, 2)], train, valid, cfg, seeds)
        assert groups == [(1, True)]

    @pytest.mark.parametrize("kind", ["logreg", "linear_regressor", "mlp-layer0"])
    def test_layer_zero_jobs_stack(self, kind, monkeypatch):
        """Jobs whose masks reach layer 0 (every job on a one-layer model)
        step as one group, from layer 0."""
        if kind == "linear_regressor":
            ds = dio.generate(dio.SyntheticSpec("linear_regression", n=150, dims=5, noise=0.5,
                                                seed=2))
            train, valid = dio.train_valid_split(ds, 0.2, seed=0)
            spec = mz.ModelSpec("linear_regressor", input_dim=5, num_classes=0, seed=3)
        else:
            train, valid = blob_task(seed=5, n=150, classes=3, noise=1.0)
            spec = mz.ModelSpec(kind.split("-")[0], input_dim=6,
                                hidden=(7,) if kind == "mlp-layer0" else (), num_classes=3,
                                seed=3)

        def reach_layer_zero(step):  # every step-th coordinate, from one of W0's first
            def mask(model):
                sel = np.arange(step % 3, model.num_params, step)
                return fi.Mask(sel, len(sel) / model.num_params, model.num_params,
                               model.content_hash())
            return mask

        cfg, seeds = tr.TrainConfig(learning_rate=0.05, max_epochs=3, batch_size=16), range(4)
        masks = [reach_layer_zero(step) for step in (1, 2, 3, 5)]
        _, groups = self.run_group(monkeypatch, lambda: mz.build(spec), masks, train, valid,
                                   cfg, seeds)
        assert groups == [(4, True)]

    def test_jobs_on_other_specs_run_apart(self):
        """Dense masks freeze no layer, so only the spec keeps a tanh and a
        relu MLP of one layout, and a logreg, out of one group."""
        train, valid = blob_task(seed=5, classes=3)
        specs = [mz.ModelSpec("mlp", input_dim=6, hidden=(7,), num_classes=3, seed=3,
                              activation=a) for a in ("tanh", "relu")]
        specs.append(mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=3))
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=2, seed=1)
        models = [mz.build(spec) for spec in specs]
        outcomes = tr.train_group([(m, None, cfg.seed) for m in models], train, valid, cfg)
        for spec, model, outcome in zip(specs, models, outcomes):
            solo = mz.build(spec)
            assert outcome == tr.train_masked(solo, None, train, valid, cfg)
            assert model.params.data.tobytes() == solo.params.data.tobytes()


def one_ulp_off(broken, monkeypatch):
    """Put the cached frozen rows, or every stacked step's gradient, one ulp
    off."""
    if broken == "frozen rows":
        real_rows = tr._frozen_rows
        monkeypatch.setattr(tr, "_frozen_rows",
                            lambda *args: np.nextafter(real_rows(*args), np.inf))
    else:
        real_step = mz.DensePass.loss_gradient

        def off(self, y):
            value, grad = real_step(self, y)
            return value, (np.nextafter(grad, np.inf) if np.ndim(value) else grad)

        monkeypatch.setattr(mz.DensePass, "loss_gradient", off)
