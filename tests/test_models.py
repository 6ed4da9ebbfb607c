"""Model zoo: parameter layout, likelihood surfaces, checkpoints."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from fishgrad import autodiff as ad
from fishgrad import models as mz

from support import zoo_specs

FIXTURES = Path(__file__).with_name("fixtures")

class TestBuild:
    def test_logreg_parameter_count(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=0))
        assert model.num_params == 4 * 2 + 2 == 10

    def test_mlp_parameter_count(self):
        model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3, seed=0))
        assert model.num_params == 4 * 8 + 8 + 8 * 3 + 3 == 67

    def test_hidden_widths_given_as_a_list(self):
        """JSON gives widths as a list; the spec keeps a tuple, so it stays
        hashable (fine-tunes group on it)."""
        spec = mz.ModelSpec("mlp", input_dim=4, hidden=[8], num_classes=3)
        assert spec == mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3)
        assert hash(spec) == hash(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3))

    def test_same_seed_bit_identical(self):
        spec = mz.ModelSpec("mlp", input_dim=6, hidden=(5,), num_classes=2, seed=123)
        a, b = mz.build(spec), mz.build(spec)
        np.testing.assert_array_equal(a.params.data, b.params.data)
        assert a.content_hash() == b.content_hash()

    def test_different_seed_differs(self):
        a = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=0))
        b = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=1))
        assert not np.array_equal(a.params.data, b.params.data)

    def test_init_bounds_follow_fan_in(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=16, num_classes=2, seed=5))
        assert np.abs(model.params.view("W0")).max() <= 1 / math.sqrt(16)

    # The last key of each spec is the field at fault.
    @pytest.mark.parametrize("bad", [
        dict(kind="logreg", num_classes=2, input_dim=0),
        dict(kind="logreg", input_dim=4, num_classes=1),
        dict(kind="mlp", input_dim=4, num_classes=2, hidden=(0,)),
        dict(kind="linear_regressor", input_dim=3, num_classes=2),
        dict(input_dim=3, num_classes=2, kind="nope"),
        dict(kind="mlp", input_dim=4, num_classes=2, hidden=8),
        dict(kind="mlp", input_dim=4, num_classes=2, hidden=["8"]),
        dict(kind="mlp", input_dim=4, num_classes=2, hidden=[2.5]),
        dict(kind="logreg", num_classes=2, input_dim="2"),
        dict(kind="logreg", input_dim=4, num_classes=2.5),
        dict(kind="logreg", input_dim=4, num_classes=2, seed="x"),
        # Every integer field: a bool, a fraction, a string, NaN, inf and a
        # value below its bound (the same cases for each hidden width).
        *[{"kind": "tiny_attention", "input_dim": 8, name: bad}
          for name, least in (("input_dim", 1), ("num_classes", 2), ("seed", 0),
                              ("embed_dim", 1), ("max_len", 1))
          for bad in (True, 2.5, "x", math.nan, math.inf, least - 1)],
        *[dict(kind="mlp", input_dim=4, hidden=(8, bad)) for bad in (True, "x", math.nan, math.inf)],
        dict(kind="tiny_attention", input_dim=8, embed_dim=33),
        dict(kind="logreg", input_dim=4, num_classes=2, hidden=(8,)),
        dict(kind="linear_regressor", input_dim=4, num_classes=0, hidden=(8,)),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError, match=list(bad)[-1]):
            mz.build(mz.ModelSpec(**bad))


class TestParamVector:
    def test_segments_partition_with_no_gaps(self):
        pv = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3, seed=0)).params
        offset = 0
        for seg in pv.segments:
            assert seg.offset == offset
            offset += seg.length
        assert offset == len(pv)

    def test_flat_index_round_trip_every_index(self):
        """A write to flat index ``seg.offset + pos`` shows at position
        ``pos`` of that segment's view, for every index."""
        pv = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3, seed=0)).params
        visited = []
        for seg in pv.segments:
            for pos in range(seg.length):
                i = seg.offset + pos
                pv.data[i] = 0.5 + i
                assert pv.view(seg.name).reshape(-1)[pos] == 0.5 + i
                visited.append(i)
        assert visited == list(range(len(pv)))

    def test_copy_is_independent(self):
        pv = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=2, seed=0)).params
        cp = pv.copy()
        cp.data[0] += 1.0
        assert pv.data[0] != cp.data[0]


def log_prob(model, x, y) -> float:
    """log p(y | x) for one row: ``log_prob_mean`` over a one-row batch."""
    return float(model.log_prob_mean(ad.Tape(), np.asarray(x)[None, :], [y]).data)


class TestLogProb:
    def test_zero_weights_uniform(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=5, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        assert log_prob(model, np.ones(5), 0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_hand_computed_softmax(self):
        """W puts weight 1 on feature 0 for class 0 only; x = e_0."""
        model = mz.build(mz.ModelSpec("logreg", input_dim=2, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        model.params.view("W0")[0, 0] = 1.0
        x = np.array([1.0, 0.0])
        expected = 1.0 - math.log(math.exp(1.0) + math.exp(0.0))
        assert log_prob(model, x, 0) == pytest.approx(expected, abs=1e-12)

    def test_log_distribution_normalized_for_random_params(self):
        """exp(log p) sums to 1 within 1e-10 across 1000 random draws."""
        rng = np.random.default_rng(17)
        model = mz.build(mz.ModelSpec("logreg", input_dim=6, num_classes=4, seed=1))
        for _ in range(1000):
            model.params.data[:] = rng.normal(scale=2.0, size=model.num_params)
            lp = model.log_probs(rng.normal(size=6))
            assert lp.max() <= 0.0
            assert abs(np.exp(lp).sum() - 1.0) <= 1e-10

    def test_non_finite_input_rejected(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=2, num_classes=2, seed=0))
        with pytest.raises(ValueError, match="finite"):
            log_prob(model, np.array([np.nan, 0.0]), 0)


class TestPassLabelCount:
    @pytest.mark.parametrize("count", [2, 4], ids=["short", "long"])
    @pytest.mark.parametrize("spec", zoo_specs(), ids=lambda spec: spec.kind)
    def test_factors_take_one_label_per_row(self, spec, count):
        """Every kind's pass checks the label count before its factors, as
        its loss gradient does, and names the batch's rows."""
        model, rng = mz.build(spec), np.random.default_rng(0)
        if spec.kind == "tiny_attention":
            X = rng.integers(0, spec.input_dim, size=(3, spec.max_len))
        else:
            X = rng.normal(size=(3, spec.input_dim))
        y = model.check_labels(rng.integers(0, 2, size=4) if model.is_classifier
                               else rng.normal(size=4))
        op = "nll" if model.is_classifier else "mse"
        with pytest.raises(ad.ShapeMismatch, match=rf"^{op}: \(3,\) rows vs \({count},\) targets$"):
            model.run(X).factors(y[:count])
        assert len(model.run(X).factors(y[:3])[-1][3]) == 3


class TestGaussianLogProb:
    def setup_method(self):
        self.model = mz.build(mz.ModelSpec("linear_regressor", input_dim=2,
                                           num_classes=0, seed=0))
        self.model.params.view("W0")[:, 0] = [1.0, 2.0]
        self.model.params.view("b0")[...] = [0.5]

    def test_exact_fit_scores_zero(self):
        x = np.array([1.0, 1.0])
        y = 1.0 + 2.0 + 0.5
        assert log_prob(self.model, x, y) == 0.0

    def test_two_off_scores_minus_two(self):
        x = np.array([1.0, 1.0])
        y = 3.5 + 2.0
        assert log_prob(self.model, x, y) == pytest.approx(-2.0, abs=1e-15)

    def test_no_class_log_probs(self):
        with pytest.raises(ValueError, match="no class logits"):
            self.model.log_probs(np.array([1.0, 1.0]))

    def test_gradient_matches_finite_differences(self):
        X = np.array([[0.3, -1.2], [1.4, 0.2]])
        y = np.array([0.7, -0.3])
        grad = ad.log_prob_gradient(self.model, X, y)
        fd = ad.finite_difference_gradient(
            lambda: float(self.model.log_prob_mean(ad.Tape(), X, y).data),
            self.model.params.data, h=1e-4)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-5


class TestTinyAttention:
    def test_position_sensitivity(self):
        """Permuting a 2-token input moves the logits for some seed."""
        changed = []
        for seed in range(4):
            model = mz.build(mz.ModelSpec("tiny_attention", input_dim=12, hidden=(6,),
                                          num_classes=2, seed=seed, embed_dim=4, max_len=4))
            a = model.log_probs(np.array([3, 7]))
            b = model.log_probs(np.array([7, 3]))
            changed.append(not np.allclose(a, b))
        assert any(changed)

    def test_sequence_longer_than_max_len_rejected(self):
        model = mz.build(mz.ModelSpec("tiny_attention", input_dim=12, num_classes=2,
                                      seed=0, embed_dim=4, max_len=3))
        with pytest.raises(ad.ShapeMismatch, match="max_len"):
            model.predictions(np.zeros((1, 5), dtype=int))

    def test_token_id_range_checked(self):
        model = mz.build(mz.ModelSpec("tiny_attention", input_dim=12, num_classes=2,
                                      seed=0, embed_dim=4, max_len=4))
        with pytest.raises(ValueError, match="token id"):
            model.predictions(np.array([[0, 99]]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3, seed=3))
        model.params.data[5] = 0.123456789
        path = tmp_path / "model.ckpt"
        mz.save_checkpoint(model, path)
        loaded = mz.load_checkpoint(path)
        assert loaded.spec == model.spec
        np.testing.assert_array_equal(loaded.params.data, model.params.data)
        assert loaded.content_hash() == model.content_hash()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        mz.save_checkpoint(mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=2,
                                                 seed=0)), path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            mz.save_checkpoint(mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=2,
                                                     seed=1)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_tampered_payload_detected(self, tmp_path):
        model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=2, seed=0))
        path = tmp_path / "model.ckpt"
        mz.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="hash"):
            mz.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["logreg_W_b", "linear_regressor_w_b"])
    def test_file_with_first_segment_names_loads(self, name):
        """Files whose headers name logreg's segments W/b and the regressor's
        w/b, w of shape (3,), still load: the loader checks the spec and the
        value count, not the segment table."""
        path = FIXTURES / f"{name}.ckpt"
        model = mz.load_checkpoint(path)
        assert model.params.data.astype("<f8").tobytes() == path.read_bytes().split(b"\n", 1)[1]
