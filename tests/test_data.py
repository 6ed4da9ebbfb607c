"""Loaders, featurization, splits and synthetic generators."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fishgrad import data as dio
from fishgrad import metrics as met
from fishgrad import models as mz
from fishgrad import training as tr

FIXTURES = Path(__file__).parent / "fixtures"

MALFORMED_TSV = [  # (id, lines, the message, with {path} for the file's path)
    ("bad-text-header", ["text1\tlabel", "good\t1"],
     "{path}: line 1: bad text header ['text1', 'label']"),
    ("bad-header", ["f0\tf2\tlabel", "1.0\t2.0\t0"],
     "{path}: line 1: bad header ['f0', 'f2', 'label']"),
    ("ragged-row", ["f0\tf1\tlabel", "1.0\t2.0\t0", "1.0\t1"],
     "{path}: line 3: expected 3 columns, got 2"),
    ("non-numeric-feature", ["f0\tlabel", "1.0\t0", "x\t1"],
     "{path}: line 3: non-numeric feature"),
]


class TestLoadTsv:
    def test_three_row_text_fixture(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("text1\ttext2\tlabel\n"
                        "the movie was great\t\t1\n"
                        "dull and slow\t\t0\n"
                        "a fine cast\tgood script\t1\n")
        ds = dio.load(path, dim=64)
        assert len(ds) == 3
        assert ds.task == "binary" and ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.texts[2] == ("a fine cast", "good script")

    def test_feature_fixture(self, tmp_path):
        path = tmp_path / "feats.tsv"
        path.write_text("f0\tf1\tlabel\n0.5\t-1.25\t0\n1.0\t2.0\t1\n")
        ds = dio.load(path)
        np.testing.assert_array_equal(ds.inputs, [[0.5, -1.25], [1.0, 2.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            dio.load(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("f0\tf1\tlabel\n1.0\t2.0\t0\n1.0\t1\n")
        with pytest.raises(ValueError, match="line 3"):
            dio.load(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("f0\tlabel\n1.0\t0\n2.0\twhat\n")
        with pytest.raises(ValueError, match="line 3.*what"):
            dio.load(path)

    @pytest.mark.parametrize("lines,message", [case[1:] for case in MALFORMED_TSV],
                             ids=[case[0] for case in MALFORMED_TSV])
    def test_first_bad_line_is_named(self, tmp_path, lines, message):
        path = tmp_path / "bad.tsv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as exc:
            dio.load(path)
        assert str(exc.value) == message.replace("{path}", str(path))

    def test_shipped_review_fixture_trains_end_to_end(self):
        """Text pairs hash-featurize into a learnable binary task."""
        ds = dio.load(FIXTURES / "reviews.tsv", dim=256)
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
            again = dio.load(path)
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

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text('{"features": [1.0, 2.0], "label": 0}\n'
                        '{"features": [1.0], "label": 1}\n')
        with pytest.raises(ValueError, match="ragged.jsonl: line 2: 1 features"):
            dio.load(path)

    @pytest.mark.parametrize("features", ['3', '[1, [2]]', '[1, "x"]'],
                             ids=["number", "nested-list", "string"])
    def test_non_numeric_features_name_file_and_line(self, tmp_path, features):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0, 2.0], "label": 0}\n'
                        f'{{"features": {features}, "label": 1}}\n')
        with pytest.raises(ValueError, match="bad.jsonl: line 2: features must be a list"):
            dio.load(path)

    def test_manifest_row_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"manifest": {"command": "gen-data"}}\n'
                        '{"features": [1.0], "label": 0}\n'
                        '{"features": [2.0], "label": 1}\n')
        assert len(dio.load(path)) == 2


GOOD = '{"features": [1.0, 2.0], "label": 0}'
MALFORMED_JSONL = [  # (id, lines, the message, with {path} for the file's path)
    ("bool-feature", [GOOD, '{"features": [1.0, true], "label": 1}'],
     "{path}: line 2: features must be a list of numbers"),
    ("string-feature", [GOOD, '{"features": [1.0, "2"], "label": 1}'],
     "{path}: line 2: features must be a list of numbers"),
    ("null-feature", [GOOD, GOOD, '{"features": [null, 2.0], "label": 1}'],
     "{path}: line 3: features must be a list of numbers"),
    ("features-an-object", [GOOD, '{"features": {"a": 1}, "label": 1}'],
     "{path}: line 2: features must be a list of numbers"),
    ("features-a-string", [GOOD, '{"features": "12", "label": 1}'],
     "{path}: line 2: features must be a list of numbers"),
    ("first-row-bad", ['{"features": [true, 2.0], "label": 1}', GOOD],
     "{path}: line 1: features must be a list of numbers"),
    ("ragged-line-4", [GOOD, GOOD, "", '{"features": [1.0, 2.0, 3.0], "label": 1}'],
     "{path}: line 4: 3 features, the first row has 2"),
    ("bad-type-before-ragged", [GOOD, '{"features": [1.0], "label": 1}',
                                '{"features": [false], "label": 1}'],
     "{path}: line 2: 1 features, the first row has 2"),
    ("non-object-number", [GOOD, "5"], "{path}: line 2: a row must be a JSON object"),
    ("non-object-null", [GOOD, "null"], "{path}: line 2: a row must be a JSON object"),
    ("non-object-string", [GOOD, '"features"'], "{path}: line 2: a row must be a JSON object"),
    ("non-object-list", [GOOD, '["manifest"]'], "{path}: line 2: a row must be a JSON object"),
    ("bad-feature-then-invalid-json", [GOOD, '{"features": [1.0, true], "label": 1}', "{"],
     "{path}: line 2: features must be a list of numbers"),
    ("bad-feature-without-label", [GOOD, '{"features": [1.0, "x"]}'],
     "{path}: line 2: features must be a list of numbers"),
    ("bad-feature-then-non-object", [GOOD, '{"features": 3, "label": 1}', "5"],
     "{path}: line 2: features must be a list of numbers"),
    ("ragged-then-bad-label", [GOOD, '{"features": [1.0], "label": 1}',
                               '{"features": [1.0, 2.0], "label": "cat"}'],
     "{path}: line 2: 1 features, the first row has 2"),
    ("invalid-json-then-bad-feature", [GOOD, "{", '{"features": [true], "label": 1}'],
     "{path}: line 2: invalid JSON"),
    ("good-features-then-missing-label", [GOOD, '{"features": [1.0, 2.0]}'],
     "{path}: line 2: missing label"),
    ("int-beyond-float64", [GOOD, GOOD, '{"features": [1.0, 1%s], "label": 1}' % ("0" * 400)],
     "{path}: line 3: a feature is too large for a float64"),
    ("int-beyond-float64-then-missing-label", ['{"features": [-1%s, 2.0], "label": 1}' % ("0" * 400),
                                               '{"features": [1.0, 2.0]}'],
     "{path}: line 1: a feature is too large for a float64"),
    ("label-2**40", [GOOD, '{"features": [1.0, 2.0], "label": %d}' % 2 ** 40],
     "{path}: line 2: label 1099511627776 must be below the row count, 2"),
    ("label-10**30", [GOOD, GOOD, '{"features": [1.0, 2.0], "label": %d}' % 10 ** 30],
     "{path}: line 3: label %d must be below the row count, 3" % 10 ** 30),
    ("label-equal-to-row-count", [GOOD, '{"features": [1.0, 2.0], "label": 2}'],
     "{path}: line 2: label 2 must be below the row count, 2"),
    ("label-beyond-rows-after-manifest", ['{"manifest": {}}', GOOD, "",
                                          '{"features": [1.0, 2.0], "label": 2}'],
     "{path}: line 4: label 2 must be below the row count, 2"),
    ("label-1e400", [GOOD, '{"features": [1.0, 2.0], "label": 1e400}'],
     "{path}: line 2: label inf is not a finite float64"),
    ("label-minus-1e400", [GOOD, GOOD, '{"features": [1.0, 2.0], "label": -1e400}'],
     "{path}: line 3: label -inf is not a finite float64"),
    ("label-NaN", [GOOD, '{"features": [1.0, 2.0], "label": NaN}'],
     "{path}: line 2: label nan is not a finite float64"),
    ("label-401-digits", [GOOD, '{"features": [1.0, 2.0], "label": 1%s}' % ("0" * 400)],
     "{path}: line 2: label 1%s is not a finite float64" % ("0" * 400)),
    ("unknown-label", [GOOD, '{"features": [1.0, 2.0], "label": "cat"}'],
     "{path}: line 2: unknown label 'cat'"),
    ("neither-features-nor-text1", [GOOD, '{"label": 1}'],
     "{path}: line 2: need 'features' or 'text1'"),
]


class TestMalformedJsonl:
    """Every malformed row gives its first bad line, whichever check finds it."""

    @pytest.mark.parametrize("lines,message", [case[1:] for case in MALFORMED_JSONL],
                             ids=[case[0] for case in MALFORMED_JSONL])
    def test_first_bad_line_is_named(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as exc:
            dio.load(path)
        assert str(exc.value) == message.replace("{path}", str(path))

    def test_labels_up_to_one_below_the_row_count_are_classes(self, tmp_path):
        path = tmp_path / "classes.jsonl"
        path.write_text("".join('{"features": [1.0], "label": %d}\n' % i for i in (3, 0, 1, 2)))
        ds = dio.load(path)
        assert (ds.task, ds.num_classes) == ("multiclass", 4)

    def test_features_convert_as_python_floats(self, tmp_path):
        rows = [[1, 2.5, -0.0], [2 ** 53 + 1, -3, 1e-310], [10 ** 20, 0, 2 ** 64 + 3]]
        path = tmp_path / "ints.jsonl"
        path.write_text("".join(json.dumps({"features": r, "label": i % 2}) + "\n"
                                for i, r in enumerate(rows)))
        inputs = dio.load(path).inputs
        assert inputs.dtype == np.float64
        assert inputs.tobytes() == np.array([[float(v) for v in r] for r in rows]).tobytes()


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

    # The last key of each spec is the field at fault.
    @pytest.mark.parametrize("kwargs", [
        dict(n=10, generator="nope"),
        dict(generator="gaussian_blobs", n=3),
        dict(generator="gaussian_blobs", n=10, noise=-1.0),
        dict(generator="gaussian_blobs", n=10, classes=1),
        # Every numeric field: a bool, a string, NaN, inf and a value below its
        # bound; a fraction for the integers.
        *[{"generator": "gaussian_blobs", "n": 10, name: bad}
          for name, least in (("n", 4), ("dims", 1), ("classes", 2), ("seed", 0),
                              ("vocab", 1), ("seq_len", 1))
          for bad in (True, 2.5, "x", math.nan, math.inf, least - 1)],
        *[dict(generator="gaussian_blobs", n=10, noise=bad)
          for bad in (True, "x", math.nan, math.inf)],
    ])
    def test_invalid_specs_rejected(self, kwargs):
        """A bad spec fails when it is built, naming the field."""
        with pytest.raises(ValueError, match=list(kwargs)[-1]):
            dio.SyntheticSpec(**{"dims": 2, **kwargs})


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
        with pytest.raises(ValueError, match=r"fractions must be in \(0, 1\]"):
            dio.split(ds, (1.2, -0.2), seed=0)
        with pytest.raises(ValueError, match="sum"):
            dio.split(ds, (0.5, 0.2), seed=0)
        for bad in (math.nan, True, 0.0, 1.0):
            with pytest.raises(ValueError, match=r"valid_fraction must be in \(0, 1\)"):
                dio.train_valid_split(ds, bad)
        with pytest.raises(ValueError, match="leave a part of the 10 rows empty"):
            dio.split(ds, (0.99, 0.01), seed=0)
        for bad in (0.01, 0.99):
            with pytest.raises(ValueError, match=f"valid_fraction {bad}: .* empty"):
                dio.train_valid_split(ds, bad)
