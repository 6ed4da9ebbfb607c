"""Squared-gradient diagonal estimators and mask construction, checked
against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishgrad import autodiff as ad
from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import models as mz

from support import zoo_specs


def regressor_with(w, b=0.0):
    model = mz.build(mz.ModelSpec("linear_regressor", input_dim=len(w),
                                  num_classes=0, seed=0))
    model.params.view("W0")[:, 0] = w
    model.params.view("b0")[...] = [b]
    return model


def dataset_of(X, y, task="regression", num_classes=0):
    return dio.Dataset(np.asarray(X, dtype=float), np.asarray(y), task, num_classes)


class TestEmpirical:
    def test_single_sample_is_squared_gradient(self):
        """Zero regressor on x=[2,-3], y=1: gradient (2,-3,1) -> scores (4,9,1)."""
        model = regressor_with([0.0, 0.0])
        ds = dataset_of([[2.0, -3.0]], [1.0])
        diag = fi.empirical_fisher(model, ds)
        np.testing.assert_array_equal(diag.values, [4.0, 9.0, 1.0])
        assert diag.source == "empirical"

    def test_zero_weight_logreg_quarter_scores(self):
        """Softmax-minus-onehot at uniform output puts 0.25 on active weights."""
        model = mz.build(mz.ModelSpec("logreg", input_dim=2, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        ds = dataset_of([[1.0, 1.0]], [0], task="binary", num_classes=2)
        diag = fi.empirical_fisher(model, ds)
        np.testing.assert_allclose(diag.values, 0.25, atol=1e-15)

    def test_duplicated_sample_equals_single(self):
        model = regressor_with([0.5, -0.2], b=0.1)
        ds = dataset_of([[1.0, 2.0]], [0.7])
        once = fi.empirical_fisher(model, ds, [0]).values
        twice = fi.empirical_fisher(model, ds, np.array([0, 0])).values
        np.testing.assert_array_equal(once, twice)

    def test_matches_brute_force_oracle(self):
        """Independent loop: square each per-sample gradient, average."""
        rng = np.random.default_rng(2)
        model = mz.build(mz.ModelSpec("mlp", input_dim=5, hidden=(6,), num_classes=3, seed=1))
        ds = dataset_of(rng.normal(size=(12, 5)), rng.integers(0, 3, size=12),
                        task="multiclass", num_classes=3)
        for trial in range(10):
            ids = np.sort(rng.choice(12, size=rng.integers(1, 12), replace=False))
            got = fi.empirical_fisher(model, ds, ids).values
            expected = np.zeros(model.num_params)
            for g in ad.per_sample_gradients(model, ds.inputs[ids], ds.labels[ids]):
                expected += g * g
            expected /= len(ids)
            assert np.abs(got - expected).max() <= 1e-12

    def test_mean_invariance_under_duplication(self):
        model = regressor_with([0.3, 0.4], b=-0.2)
        rng = np.random.default_rng(0)
        ds = dataset_of(rng.normal(size=(5, 2)), rng.normal(size=5))
        base = fi.empirical_fisher(model, ds, np.arange(5)).values
        doubled = fi.empirical_fisher(model, ds, np.tile(np.arange(5), 2)).values
        np.testing.assert_allclose(doubled, base, rtol=1e-12, atol=1e-15)

    def test_empty_subset_rejected(self):
        model = regressor_with([1.0])
        ds = dataset_of([[1.0]], [0.0])
        with pytest.raises(ValueError, match="empty"):
            fi.empirical_fisher(model, ds, [])


class TestExpectation:
    def test_two_class_uniform_is_average_of_per_class_squares(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=2, seed=0))
        model.params.data[:] = 0.0
        x = np.array([[0.4, -1.0, 2.0]])
        ds = dataset_of(x, [0], task="binary", num_classes=2)
        got = fi.expectation_fisher(model, ds).values
        g0 = ad.log_prob_gradient(model, x, [0])
        g1 = ad.log_prob_gradient(model, x, [1])
        np.testing.assert_allclose(got, 0.5 * g0 ** 2 + 0.5 * g1 ** 2, atol=1e-15)

    def test_near_deterministic_matches_empirical_argmax(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=3, seed=4))
        model.params.data *= 200.0  # saturate the softmax
        rng = np.random.default_rng(1)
        pool = rng.normal(size=(40, 3))
        sure = np.array([np.exp(model.log_probs(x)).max() > 1 - 1e-12 for x in pool])
        X = pool[sure][:4]
        assert len(X) == 4  # enough confidently classified points
        argmax = model.predictions(X)
        ds = dataset_of(X, argmax, task="multiclass", num_classes=3)
        exp = fi.expectation_fisher(model, ds).values
        emp = fi.empirical_fisher(model, ds).values
        assert np.abs(exp - emp).max() <= 1e-9

    def test_always_non_negative(self):
        model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=3, seed=2))
        rng = np.random.default_rng(3)
        ds = dataset_of(rng.normal(size=(6, 4)), rng.integers(0, 3, size=6),
                        task="multiclass", num_classes=3)
        assert fi.expectation_fisher(model, ds).values.min() >= 0.0

    def test_regression_model_rejected(self):
        model = regressor_with([1.0, 1.0])
        ds = dataset_of([[1.0, 2.0]], [0.5])
        with pytest.raises(ValueError, match="classifier"):
            fi.expectation_fisher(model, ds)


class TestSampleScores:
    def test_unrestricted_is_squared_norm(self):
        """Gradient (2,-3,1) -> score 4+9+1."""
        model = regressor_with([0.0, 0.0])
        ds = dataset_of([[2.0, -3.0]], [1.0])
        (score,) = fi.sample_scores(model, ds)
        assert score == pytest.approx(14.0, abs=0)

    def test_ranking_matches_brute_force(self):
        rng = np.random.default_rng(9)
        model = mz.build(mz.ModelSpec("logreg", input_dim=4, num_classes=2, seed=3))
        ds = dataset_of(rng.normal(size=(10, 4)), rng.integers(0, 2, size=10),
                        task="binary", num_classes=2)
        scores = fi.sample_scores(model, ds)
        expected = [float((g * g).sum()) for g in
                    ad.per_sample_gradients(model, ds.inputs, ds.labels)]
        ranking = sorted(range(10), key=lambda i: -scores[i])
        expected_ranking = sorted(range(10), key=lambda i: -expected[i])
        assert ranking == expected_ranking
        np.testing.assert_allclose(scores, expected, rtol=1e-12)


class TestTopKMask:
    def test_direct_sort_example(self):
        diag = fi.FisherDiagonal([0.5, 0.1, 0.9, 0.3], "empirical", [0], "h")
        mask = fi.top_k_mask(diag, k=2)
        np.testing.assert_array_equal(mask.selected, [0, 2])

    def test_all_ties_pick_lowest_indices(self):
        diag = fi.FisherDiagonal(np.zeros(6), "empirical", [0], "h")
        mask = fi.top_k_mask(diag, k=2)
        np.testing.assert_array_equal(mask.selected, [0, 1])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(12)
        values = rng.random(1000)
        diag = fi.FisherDiagonal(values, "empirical", [0], "h")
        mask = fi.top_k_mask(diag, sparsity=0.1)
        oracle = np.sort(sorted(range(1000), key=lambda i: (-values[i], i))[:100])
        np.testing.assert_array_equal(mask.selected, oracle)

    def test_nested_under_increasing_sparsity(self):
        rng = np.random.default_rng(5)
        diag = fi.FisherDiagonal(rng.random(200), "empirical", [0], "h")
        prev = set()
        for sparsity in (0.01, 0.05, 0.2, 0.5, 1.0):
            cur = set(fi.top_k_mask(diag, sparsity=sparsity).selected.tolist())
            assert prev <= cur
            prev = cur

    @pytest.mark.parametrize("n", [10, 67, 10_000])
    @pytest.mark.parametrize("sparsity", [0.0002, 0.001, 0.005, 0.025, 0.1, 1.0])
    def test_cardinality_formula(self, n, sparsity):
        diag = fi.FisherDiagonal(np.arange(n, dtype=float), "empirical", [0], "h")
        mask = fi.top_k_mask(diag, sparsity=sparsity)
        assert mask.size == max(1, int(np.floor(sparsity * n + 0.5)))

    def test_needs_exactly_one_of_sparsity_and_k(self):
        diag = fi.FisherDiagonal(np.ones(10), "empirical", [0], "h")
        for kwargs in ({}, {"sparsity": 0.5, "k": 3}):
            with pytest.raises(ValueError, match="need sparsity or k, not both or neither"):
                fi.top_k_mask(diag, **kwargs)

    def test_half_up_rounding(self):
        # 0.025 * 67 = 1.675 -> 2; 0.005 * 500 = 2.5 rounds up, never to even
        diag = fi.FisherDiagonal(np.ones(500), "empirical", [0], "h")
        assert fi.top_k_mask(diag, sparsity=0.005).size == 3
        assert fi.mask_size(0.025, 67) == 2

    def test_sparsity_out_of_range(self):
        diag = fi.FisherDiagonal(np.ones(10), "empirical", [0], "h")
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                fi.top_k_mask(diag, sparsity=bad)


def stable_sort_top_k(values, candidates, k, keep_largest=True):
    """The stable-sort rule that ``top_k_within`` reproduces in linear time."""
    cand = np.asarray(candidates, dtype=np.int64)
    order = cand[np.argsort(-values[cand], kind="stable")]
    return np.sort(order[:k] if keep_largest else order[len(cand) - k:])


def scores_of(kind, n, rng):
    if kind == "random":
        return rng.random(n)
    values = rng.integers(0, 3, size=n).astype(float)  # three values: ties everywhere
    if kind == "nan":
        values[rng.random(n) < 0.3] = np.nan
    elif kind == "signed-zero-inf":
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0])[rng.integers(0, 5, size=n)]
    return values


class TestTopKWithin:
    @pytest.mark.parametrize("kind", ["random", "ties", "nan", "signed-zero-inf"])
    def test_matches_stable_sort_oracle(self, kind):
        rng = np.random.default_rng(len(kind))
        for n in [*range(1, 40), 4402]:
            values = scores_of(kind, n, rng)
            cand = rng.permutation(n)[:rng.integers(1, n + 1)]  # unsorted candidates
            for k in sorted({0, 1, int(rng.integers(0, len(cand) + 1)), len(cand)}):
                fwd = fi.top_k_within(values, cand, k)
                inv = fi.top_k_within(values, cand, len(cand) - k, keep_largest=False)
                np.testing.assert_array_equal(fwd, stable_sort_top_k(values, cand, k))
                np.testing.assert_array_equal(
                    inv, stable_sort_top_k(values, cand, len(cand) - k, keep_largest=False))
                assert fi.top_k_within(values, cand, k, keep_largest=False).tolist() == \
                    stable_sort_top_k(values, cand, k, keep_largest=False).tolist()
                # the two directions partition the candidate set
                assert len(np.intersect1d(fwd, inv)) == 0
                np.testing.assert_array_equal(np.sort(np.concatenate([fwd, inv])), np.sort(cand))

    def test_boundary_ties_go_to_the_earliest_candidates(self):
        values = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        cand = np.array([3, 0, 2, 1, 4])
        # candidate order among the ties at 2.0: 3, then 2, then 1
        np.testing.assert_array_equal(fi.top_k_within(values, cand, 2), [2, 3])
        np.testing.assert_array_equal(fi.top_k_within(values, cand, 3, keep_largest=False),
                                      [0, 1, 4])

    def test_nan_ranks_last(self):
        values = np.array([np.nan, 0.0, np.nan, -1.0])
        np.testing.assert_array_equal(fi.top_k_within(values, np.arange(4), 2), [1, 3])
        np.testing.assert_array_equal(
            fi.top_k_within(values, np.arange(4), 1, keep_largest=False), [2])

    def test_k_out_of_range(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match=r"k must be in \[0, 3\]"):
                fi.top_k_within(np.ones(5), np.arange(3), k)


class TestRandomMask:
    def test_full_sparsity_selects_everything(self):
        mask = fi.random_mask(20, 1.0, seed=0)
        np.testing.assert_array_equal(mask.selected, np.arange(20))

    def test_same_seed_identical(self):
        a = fi.random_mask(100, 0.1, seed=42)
        b = fi.random_mask(100, 0.1, seed=42)
        np.testing.assert_array_equal(a.selected, b.selected)

    def test_selection_frequency_uniform(self):
        """10^4 draws at sparsity 0.1: per-index frequency within 0.1 +/- 0.02."""
        n, draws = 50, 10_000
        counts = np.zeros(n)
        for seed in range(draws):
            counts[fi.random_mask(n, 0.1, seed).selected] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.1) <= 0.02)


class TestMaskInvariants:
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_selected_sorted_unique_bounded(self, values, k):
        k = min(k, len(values))
        diag = fi.FisherDiagonal(np.asarray(values), "empirical", [0], "h")
        mask = fi.top_k_mask(diag, k=k)
        sel = mask.selected
        assert len(sel) == k
        assert np.all(np.diff(sel) > 0)
        assert sel[-1] < len(values)
        kept_min = diag.values[sel].min()
        dropped = np.setdiff1d(np.arange(len(values)), sel)
        if len(dropped):
            assert diag.values[dropped].max() <= kept_min

    def test_json_round_trip(self):
        diag = fi.FisherDiagonal([0.1, 0.7, 0.3], "empirical", [4, 9], "abc")
        again = fi.fisher_from_json(fi.fisher_to_json(diag))
        np.testing.assert_array_equal(again.values, diag.values)
        mask = fi.top_k_mask(diag, k=2)
        again_mask = fi.mask_from_json(fi.mask_to_json(mask))
        np.testing.assert_array_equal(again_mask.selected, mask.selected)
        assert again_mask.model_hash == "abc"


EQUIVALENCE_SPECS = [*zoo_specs(seed=5),
                     mz.ModelSpec("mlp", input_dim=4, hidden=(7, 5), num_classes=3,
                                  seed=6, activation="relu")]


def random_dataset(spec, n, rng):
    """Rows a model of ``spec`` accepts: token ids for attention, features otherwise."""
    if spec.kind == "tiny_attention":
        X = rng.integers(0, spec.input_dim, size=(n, spec.max_len))
    else:
        X = rng.normal(size=(n, spec.input_dim))
    if spec.kind == "linear_regressor":
        return dataset_of(X, rng.normal(size=n))
    return dio.Dataset(X, rng.integers(0, spec.num_classes, size=n), "multiclass",
                       spec.num_classes, token_inputs=spec.kind == "tiny_attention")


class TestFactoredScoresMatchTapeLoop:
    """Every scorer equals a loop over ``ad.per_sample_gradients``, the
    independent per-row tape oracle, whichever path computes it."""

    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}-{len(s.hidden)}")
    def test_all_scorers_match_oracle(self, spec):
        rng = np.random.default_rng(21)
        model = mz.build(spec)
        ds = random_dataset(spec, 12, rng)
        ids = np.array([7, 2, 9, 2, 0, 11])  # unsorted, with a duplicate
        X, y = ds.inputs[ids], ds.labels[ids]
        grads = ad.per_sample_gradients(model, X, y)

        empirical = sum(g * g for g in grads) / len(ids)
        assert np.abs(fi.empirical_fisher(model, ds, ids).values - empirical).max() <= 1e-12
        scores = fi.sample_scores(model, ds, ids)
        assert scores.shape == ids.shape
        want = [float((g * g).sum()) for g in grads]
        assert np.abs(scores - want).max() <= 1e-12
        if model.is_classifier:
            expected = np.zeros(model.num_params)
            for x in X:
                probs = np.exp(model.log_probs(x))
                for cls in range(spec.num_classes):
                    (g,) = ad.per_sample_gradients(model, x[None], np.array([cls]))
                    expected += probs[cls] * g * g
            expected /= len(ids)
            got = fi.expectation_fisher(model, ds, ids).values
            assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}-{len(s.hidden)}")
    def test_repeat_calls_are_byte_identical(self, spec):
        model = mz.build(spec)
        ds = random_dataset(spec, 10, np.random.default_rng(3))
        scorers = [lambda: fi.empirical_fisher(model, ds).values,
                   lambda: fi.sample_scores(model, ds)]
        if model.is_classifier:
            scorers.append(lambda: fi.expectation_fisher(model, ds).values)
        for scorer in scorers:
            assert scorer().tobytes() == scorer().tobytes()
