"""Metric fixtures from hand arithmetic plus structural invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishgrad import data as dio
from fishgrad import metrics as met
from fishgrad import models as mz


class TestAccuracy:
    def test_all_correct(self):
        assert met.accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_three_of_four(self):
        assert met.accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            met.accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            met.accuracy([1], [1, 0])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_joint_permutation(self, pairs, rnd):
        preds, labels = zip(*pairs)
        base = met.accuracy(preds, labels)
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        p2, l2 = zip(*shuffled)
        assert met.accuracy(p2, l2) == base


class TestMCC:
    def test_perfect_prediction(self):
        assert met.mcc([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_constant_prediction_degenerates_to_zero(self):
        assert met.mcc([1, 1, 1], [0, 1, 1]) == 0.0

    def test_hand_confusion_matrix(self):
        """TP=1 TN=2 FP=1 FN=0 -> 2/sqrt(12)."""
        preds = [1, 1, 0, 0]
        labels = [1, 0, 0, 0]
        assert met.confusion(preds, labels) == (1, 2, 1, 0)
        assert met.mcc(preds, labels) == pytest.approx(2 / math.sqrt(12), abs=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match=r"binary metric got labels \[0, 1, 2\]$"):
            met.mcc([0, 2], [0, 1])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_under_class_swap(self, pairs):
        preds, labels = (np.array(v) for v in zip(*pairs))
        assert met.mcc(1 - preds, 1 - labels) == pytest.approx(met.mcc(preds, labels),
                                                               abs=1e-12)

    def test_bounded_on_random_confusions(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            tp, tn, fp, fn = rng.integers(0, 6, size=4)
            preds = [1] * tp + [0] * tn + [1] * fp + [0] * fn
            labels = [1] * tp + [0] * tn + [0] * fp + [1] * fn
            if not preds:
                continue
            assert -1.0 <= met.mcc(preds, labels) <= 1.0


class TestCorrelations:
    def test_affine_monotone_is_one(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        y = 2 * x + 1
        assert met.pearson(x, y) == pytest.approx(1.0, abs=1e-12)
        assert met.spearman(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_reversal_is_minus_one(self):
        x = np.array([0.3, 1.2, 2.5, 9.0])
        assert met.spearman(x, x[::-1].copy()) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_hand_value(self):
        """Ranks differ by d^2 total 2: 1 - 6*2/(4*15) = 0.8."""
        assert met.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_tied_values_get_average_ranks(self):
        # ranks of [1, 2, 2, 3] are [1, 2.5, 2.5, 4]
        np.testing.assert_array_equal(met._average_ranks(np.array([1.0, 2.0, 2.0, 3.0])),
                                      [1.0, 2.5, 2.5, 4.0])

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            met.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="constant"):
            met.spearman([1.0, 2.0], [5.0, 5.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            met.pearson([1.0], [2.0])

    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                    min_size=3, max_size=30).filter(
               lambda ps: len({a for a, _ in ps}) > 1 and len({b for _, b in ps}) > 1))
    @settings(max_examples=60, deadline=None)
    def test_spearman_invariant_under_monotone_transform(self, pairs):
        # Integer grids keep exp(x/50) and y^3+2y injective in float64, so the
        # transforms stay strictly increasing numerically as well.
        x, y = (np.array(v, dtype=float) / 10.0 for v in zip(*pairs))
        base = met.spearman(x, y)
        assert met.spearman(np.exp(x / 50.0), y) == pytest.approx(base, abs=1e-9)
        assert met.spearman(x, y ** 3 + 2 * y) == pytest.approx(base, abs=1e-9)


class TestCombined:
    def test_perfect(self):
        assert met.combined_score([0, 1, 1], [0, 1, 1]) == 1.0

    def test_hand_confusion(self):
        """TP=2 FP=1 FN=1 TN=4: F1=2/3, acc=0.75, combined ~ 0.70833."""
        preds = [1, 1, 1, 0, 0, 0, 0, 0]
        labels = [1, 1, 0, 1, 0, 0, 0, 0]
        assert met.f1(preds, labels) == pytest.approx(2 / 3, abs=1e-15)
        assert met.accuracy(preds, labels) == 0.75
        assert met.combined_score(preds, labels) == pytest.approx((2 / 3 + 0.75) / 2,
                                                                  abs=1e-12)

    def test_constructed_average(self):
        """Known F1 0.8 with accuracy 0.9 averages to 0.85."""
        # TP=4, FP=1, FN=1, TN=14: F1 = 8/10, acc = 18/20
        preds = [1] * 4 + [1] + [0] + [0] * 14
        labels = [1] * 4 + [0] + [1] + [0] * 14
        assert met.combined_score(preds, labels) == pytest.approx(0.85, abs=1e-12)

    def test_no_positives_anywhere_is_half_accuracy(self):
        assert met.combined_score([0, 0], [0, 0]) == pytest.approx(0.5)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_range(self, pairs):
        preds, labels = zip(*pairs)
        assert 0.0 <= met.combined_score(preds, labels) <= 1.0
        assert 0.0 <= met.accuracy(preds, labels) <= 1.0


class TestScore:
    def test_zero_weight_classifier_predicts_class_zero(self):
        """Uniform logits tie-break to class 0, scoring the class-0 base rate."""
        model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        rng = np.random.default_rng(0)
        ds = dio.Dataset(rng.normal(size=(10, 4)),
                         np.array([0, 1] * 5), "binary", 2)
        assert met.score("accuracy", model, ds) == 0.5

    def test_perfect_oracle_scores_one(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=2, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        model.params.view("W0")[...] = [[-5.0, 5.0], [0.0, 0.0]]
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        y = np.array([1, 0, 1, 0])
        ds = dio.Dataset(X, y, "binary", 2)
        assert met.score("accuracy", model, ds) == 1.0

    def test_matches_hand_rolled_evaluation_loop(self):
        rng = np.random.default_rng(8)
        model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=3, seed=5))
        ds = dio.Dataset(rng.normal(size=(20, 3)), rng.integers(0, 3, size=20),
                         "multiclass", 3)
        got = met.score("accuracy", model, ds)
        correct = 0
        for i in range(20):
            lp = model.log_probs(ds.inputs[i])
            pred = int(np.flatnonzero(lp == lp.max())[0])  # lowest index on ties
            correct += pred == ds.labels[i]
        assert got == correct / 20

    def test_regression_scores_mean_of_correlations(self):
        model = mz.build(mz.ModelSpec("linear_regressor", input_dim=2, num_classes=0, seed=1))
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        ds = dio.Dataset(X, y, "regression")
        preds = model.predictions(X)
        expected = (met.pearson(preds, y) + met.spearman(preds, y)) / 2
        assert met.score("pearson_spearman_mean", model, ds) == pytest.approx(expected)
        assert met.score("auto", model, ds) == pytest.approx(expected)

    def test_incompatible_metric_rejected(self):
        clf = mz.build(mz.ModelSpec("logreg", input_dim=2, num_classes=2, seed=0))
        ds = dio.Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), "binary", 2)
        with pytest.raises(ValueError, match="incompatible"):
            met.score("pearson", clf, ds)

    def test_determinism(self):
        model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(5,), num_classes=2, seed=3))
        rng = np.random.default_rng(4)
        ds = dio.Dataset(rng.normal(size=(30, 4)), rng.integers(0, 2, size=30),
                         "binary", 2)
        assert met.score("accuracy", model, ds) == met.score("accuracy", model, ds)
