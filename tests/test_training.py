"""Masked training: frozen coordinates, optimizer arithmetic, early stop."""

import numpy as np
import pytest

from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import models as mz
from fishgrad import training as tr


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
        tr.adam_step(params, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(params, [0.7, -0.3])

    def test_hand_evaluated_first_step(self):
        """Straight-line recurrence: g=1, t=1, lr=1e-3."""
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expected = -lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        params = np.array([0.0])
        tr.adam_step(params, np.array([1.0]), tr.AdamState.for_size(1), lr=lr)
        assert params[0] == expected
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_identical_coordinates_update_identically(self):
        params = np.array([0.5, 0.5])
        state = tr.AdamState.for_size(2)
        for _ in range(3):
            tr.adam_step(params, np.array([0.2, 0.2]), state, lr=0.01)
        assert params[0] == params[1]

    def test_step_count_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            tr.adam_step(np.zeros(1), np.ones(1), tr.AdamState.for_size(1),
                         lr=0.1, t=0)


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

    def test_loss_head_compatibility_checked(self):
        train, valid = blob_task(seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=0))
        with pytest.raises(ValueError, match="scalar-output"):
            tr.train_masked(model, None, train, valid, tr.TrainConfig(loss="mse"))

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
        dict(loss="hinge"),
        dict(learning_rate=float("inf")),
        dict(learning_rate=float("nan")),
        dict(eps=-1.0),
        dict(eps=0.0),
        dict(eps=float("nan")),
        dict(eps=float("inf")),
        dict(max_epochs=0),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kwargs)
