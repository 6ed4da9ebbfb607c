"""Loaders, featurization, splits and synthetic generators."""

import os
from pathlib import Path

import numpy as np
import pytest

from fishgrad import data as dio
from fishgrad import metrics as met
from fishgrad import models as mz
from fishgrad import training as tr

FIXTURES = Path(__file__).parent / "fixtures"


class TestLoadTsv:
    def test_three_row_text_fixture(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("text1\ttext2\tlabel\n"
                        "the movie was great\t\t1\n"
                        "dull and slow\t\t0\n"
                        "a fine cast\tgood script\t1\n")
        ds = dio.load(path, "tsv", dim=64)
        assert len(ds) == 3
        assert ds.task == "binary" and ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.texts[2] == ("a fine cast", "good script")

    def test_feature_fixture(self, tmp_path):
        path = tmp_path / "feats.tsv"
        path.write_text("f0\tf1\tlabel\n0.5\t-1.25\t0\n1.0\t2.0\t1\n")
        ds = dio.load(path, "tsv")
        np.testing.assert_array_equal(ds.inputs, [[0.5, -1.25], [1.0, 2.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            dio.load(path, "tsv")

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("f0\tf1\tlabel\n1.0\t2.0\t0\n1.0\t1\n")
        with pytest.raises(ValueError, match="line 3"):
            dio.load(path, "tsv")

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("f0\tlabel\n1.0\t0\n2.0\twhat\n")
        with pytest.raises(ValueError, match="line 3.*what"):
            dio.load(path, "tsv")

    def test_shipped_review_fixture_trains_end_to_end(self):
        """Text pairs hash-featurize into a learnable binary task."""
        ds = dio.load(FIXTURES / "reviews.tsv", "tsv", dim=256)
        assert len(ds) == 12 and ds.task == "binary"
        assert np.bincount(ds.labels).tolist() == [6, 6]
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=256, num_classes=2, seed=0))
        cfg = tr.TrainConfig(learning_rate=0.5, optimizer="sgd", max_epochs=40,
                             patience=50, seed=0)
        report = tr.train_masked(model, None, train, valid, cfg)
        assert met.score("accuracy", model, train) == 1.0  # separable bag of words
        assert report.epochs_run >= 1

    def test_round_trip_preserves_rows_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        original = dio.Dataset(rng.normal(size=(7, 3)), rng.integers(0, 2, size=7),
                               "binary", 2)
        for fmt in ("tsv", "jsonl"):
            path = tmp_path / f"round.{fmt}"
            dio.save(original, path, format=fmt)
            again = dio.load(path, fmt)
            np.testing.assert_array_equal(again.inputs, original.inputs)
            np.testing.assert_array_equal(again.labels, original.labels)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """An unknown format or a failed write leaves the old file byte for
        byte, and no temporary file behind."""
        rng = np.random.default_rng(1)
        ds = dio.Dataset(rng.normal(size=(5, 3)), rng.integers(0, 2, size=5), "binary", 2)
        path = tmp_path / "data.jsonl"
        dio.save(ds, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="unknown format"):
            dio.save(ds, path, format="csv")
        assert path.read_bytes() == before

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            dio.save(ds, path, format="tsv")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


class TestLoadJsonl:
    def test_text_rows(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"text1": "alpha beta", "text2": "gamma", "label": 1}\n'
                        '{"text1": "beta", "text2": "", "label": 0}\n')
        ds = dio.load(path, dim=32)
        assert len(ds) == 2 and ds.task == "binary"
        assert ds.inputs.shape == (2, 32)

    def test_regression_labels(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"features": [1.0, 2.0], "label": 0.5}\n'
                        '{"features": [0.0, 1.0], "label": -1.25}\n')
        ds = dio.load(path)
        assert ds.task == "regression"
        np.testing.assert_array_equal(ds.labels, [0.5, -1.25])

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"features": [1.0], "label": 0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            dio.load(path)

    def test_manifest_row_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"manifest": {"command": "gen-data"}}\n'
                        '{"features": [1.0], "label": 0}\n'
                        '{"features": [2.0], "label": 1}\n')
        assert len(dio.load(path)) == 2


class TestFeaturize:
    def test_counts_before_normalization(self):
        """'a a b': two buckets populated in ratio 2:1."""
        vec = dio.featurize_text("a a b", dim=32) * np.linalg.norm([2.0, 1.0])
        nonzero = np.sort(vec[vec > 0])
        np.testing.assert_allclose(nonzero, [1.0, 2.0])

    def test_deterministic(self):
        a = dio.featurize_text("some words here", dim=128, seed=3)
        b = dio.featurize_text("some words here", dim=128, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_buckets(self):
        a = dio.featurize_text("some words here", dim=128, seed=3)
        b = dio.featurize_text("some words here", dim=128, seed=4)
        assert not np.array_equal(a, b)

    def test_unit_norm_when_nonempty(self):
        vec = dio.featurize_text("x y z", dim=64)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_is_zero_vector(self):
        np.testing.assert_array_equal(dio.featurize_text("", dim=16), np.zeros(16))

    def test_bag_property_order_independent(self):
        a = dio.featurize_text("red green blue", dim=256)
        b = dio.featurize_text("blue red green", dim=256)
        np.testing.assert_array_equal(a, b)

    def test_case_folding(self):
        np.testing.assert_array_equal(dio.featurize_text("Apple", dim=64),
                                      dio.featurize_text("apple", dim=64))


class TestGenerate:
    def test_zero_noise_blobs_linearly_separable(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=80, dims=4,
                                            classes=2, noise=0.0, seed=2))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=0))
        cfg = tr.TrainConfig(learning_rate=0.5, optimizer="sgd", max_epochs=30,
                             patience=40, seed=0)
        tr.train_masked(model, None, train, valid, cfg)
        assert met.score("accuracy", model, ds) == 1.0

    def test_same_spec_identical(self):
        spec = dio.SyntheticSpec("xor_ring", n=50, dims=5, noise=0.2, seed=9)
        a, b = dio.generate(spec), dio.generate(spec)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noiseless_regression_is_exactly_linear(self):
        ds = dio.generate(dio.SyntheticSpec("linear_regression", n=50, dims=3,
                                            noise=0.0, seed=1))
        model = mz.build(mz.ModelSpec("linear_regressor", input_dim=3, num_classes=0, seed=0))
        # pearson(y, w.x) with the true weights is exactly 1
        assert ds.task == "regression"
        fit = np.linalg.lstsq(np.c_[ds.inputs, np.ones(len(ds))], ds.labels, rcond=None)[0]
        preds = ds.inputs @ fit[:3] + fit[3]
        assert met.pearson(preds, ds.labels) == pytest.approx(1.0, abs=1e-9)

    def test_token_topic_shapes_and_range(self):
        ds = dio.generate(dio.SyntheticSpec("token_topic", n=20, classes=2, seed=0,
                                            vocab=32, seq_len=6))
        assert ds.token_inputs
        assert ds.inputs.shape == (20, 6)
        assert ds.inputs.min() >= 0 and ds.inputs.max() < 32

    def test_balanced_labels(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=90, dims=2,
                                            classes=3, noise=0.1, seed=4))
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [30, 30, 30])

    @pytest.mark.parametrize("kwargs", [
        dict(generator="nope", n=10),
        dict(generator="gaussian_blobs", n=3),
        dict(generator="gaussian_blobs", n=10, noise=-1.0),
        dict(generator="gaussian_blobs", n=10, classes=1),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dio.generate(dio.SyntheticSpec(**{"dims": 2, **kwargs}))


class TestSplit:
    def test_eight_two_split(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=10, dims=2, seed=0))
        train, valid = dio.split(ds, (0.8, 0.2), seed=1)
        assert len(train) == 8 and len(valid) == 2

    def test_union_is_original_multiset(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=21, dims=3, seed=3))
        parts = dio.split(ds, (0.5, 0.3, 0.2), seed=7)
        rows = np.vstack([p.inputs for p in parts])
        assert rows.shape == ds.inputs.shape
        order = np.lexsort(rows.T)
        base_order = np.lexsort(ds.inputs.T)
        np.testing.assert_array_equal(rows[order], ds.inputs[base_order])

    def test_same_seed_same_split(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=30, dims=2, seed=0))
        a = dio.split(ds, (0.7, 0.3), seed=4)
        b = dio.split(ds, (0.7, 0.3), seed=4)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.inputs, pb.inputs)

    def test_disjoint_and_covering_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            cut = float(rng.uniform(0.2, 0.8))
            ds = dio.Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int),
                             "binary", 2)
            a, b = dio.split(ds, (cut, 1.0 - cut), seed=int(rng.integers(1000)))
            ids = np.concatenate([a.inputs[:, 0], b.inputs[:, 0]])
            assert len(ids) == n
            assert len(np.unique(ids)) == n

    def test_bad_fractions_rejected(self):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=10, dims=2, seed=0))
        with pytest.raises(ValueError, match="positive"):
            dio.split(ds, (1.2, -0.2), seed=0)
        with pytest.raises(ValueError, match="sum"):
            dio.split(ds, (0.5, 0.2), seed=0)
