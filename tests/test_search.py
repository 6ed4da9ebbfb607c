"""Halving-search mechanics: trace laws, nesting, complementarity, grids."""

import math

import numpy as np
import pytest

from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import models as mz
from fishgrad import search as sr
from fishgrad import training as tr


def quick_cfg(seed=0, epochs=2):
    return sr.IRDConfig(train=tr.TrainConfig(learning_rate=0.05, max_epochs=epochs,
                                             seed=seed))


@pytest.fixture(scope="module")
def blob_splits():
    ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=120, dims=6,
                                        classes=3, noise=0.5, seed=1))
    return dio.train_valid_split(ds, 0.2, seed=0)


@pytest.fixture(scope="module")
def blob_model():
    return mz.build(mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=3, seed=2))


class TestTraceShape:
    def test_hand_traced_eight_sixteen(self, blob_splits, blob_model):
        """8 samples, 16-parameter mask: while-loop runs 3 times."""
        train, valid = blob_splits
        trace = sr.ird(blob_model, train, valid, np.arange(8), initial_k=16,
                       cfg=quick_cfg())
        assert len(trace) == 6
        assert trace.sample_sizes() == [8, 4, 2, 1]
        assert trace.mask_sizes() == [16, 8, 4, 2]
        assert [r.phase for r in trace.records] == [sr.PHASE_SAMPLES, sr.PHASE_PARAMS] * 3
        assert [r.iteration for r in trace.records] == [0, 0, 1, 1, 2, 2]

    def test_two_by_two_runs_once(self, blob_splits, blob_model):
        train, valid = blob_splits
        trace = sr.ird(blob_model, train, valid, np.array([3, 9]), initial_k=2,
                       cfg=quick_cfg())
        assert len(trace) == 2
        assert trace.sample_sizes() == [2, 1]
        assert trace.mask_sizes() == [2, 1]

    def test_masks_and_subsets_strictly_nested(self, blob_splits, blob_model):
        train, valid = blob_splits
        trace = sr.ird(blob_model, train, valid, np.arange(16), initial_k=16,
                       cfg=quick_cfg())
        masks = [set(trace.initial_mask.selected.tolist())]
        masks += [set(r.mask.selected.tolist()) for r in trace.records
                  if r.phase == sr.PHASE_PARAMS]
        subsets = [set(trace.initial_subset.ids.tolist())]
        subsets += [set(r.subset.ids.tolist()) for r in trace.records
                    if r.phase == sr.PHASE_SAMPLES]
        for bigger, smaller in zip(masks, masks[1:]):
            assert smaller < bigger
        for bigger, smaller in zip(subsets, subsets[1:]):
            assert smaller < bigger

    def test_degenerate_inputs_rejected(self, blob_splits, blob_model):
        train, valid = blob_splits
        with pytest.raises(ValueError, match="initial samples"):
            sr.ird(blob_model, train, valid, np.array([5]), initial_k=4, cfg=quick_cfg())
        with pytest.raises(ValueError, match="at least 2 parameters"):
            sr.ird(blob_model, train, valid, np.arange(4), initial_k=1, cfg=quick_cfg())

    def test_reproducible_traces(self, blob_splits, blob_model):
        train, valid = blob_splits
        runs = [sr.ird(blob_model, train, valid, np.arange(8), initial_k=8,
                       cfg=quick_cfg(seed=5)) for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()


class TestInverseComplementarity:
    def test_median_split_example(self):
        """Scores 1..4: forward keeps the {3,4}-scored ids, inverse {1,2}."""
        scores = [fi.SampleScore(i, float(s)) for i, s in enumerate([1, 2, 3, 4])]
        fwd = sr._keep_samples(scores, 2, largest=True)
        inv = sr._keep_samples(scores, 2, largest=False)
        np.testing.assert_array_equal(fwd, [2, 3])
        np.testing.assert_array_equal(inv, [0, 1])

    def test_fifty_random_vectors_partition(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            values = rng.permutation(n * 10)[:n].astype(float)  # distinct
            scores = [fi.SampleScore(i, v) for i, v in enumerate(values)]
            fwd = sr._keep_samples(scores, math.ceil(n / 2), largest=True)
            inv = sr._keep_samples(scores, n // 2, largest=False)
            assert len(np.intersect1d(fwd, inv)) == 0
            np.testing.assert_array_equal(np.union1d(fwd, inv), np.arange(n))
            if len(inv):
                assert values[fwd].min() > values[inv].max()

    def test_tie_at_median_goes_to_kept_larger_side_by_lower_id(self):
        scores = [fi.SampleScore(i, v) for i, v in enumerate([5.0, 3.0, 3.0, 1.0])]
        fwd = sr._keep_samples(scores, 2, largest=True)
        inv = sr._keep_samples(scores, 2, largest=False)
        np.testing.assert_array_equal(fwd, [0, 1])  # id 1 wins the 3.0 tie
        np.testing.assert_array_equal(inv, [2, 3])

    def test_end_to_end_disjoint_halves(self, blob_splits, blob_model):
        train, valid = blob_splits
        fwd = sr.ird(blob_model, train, valid, np.arange(8), initial_k=8,
                     cfg=quick_cfg())
        inv = sr.ird_inverse(blob_model, train, valid, np.arange(8), initial_k=8,
                             cfg=quick_cfg())
        assert len(fwd) == len(inv)
        prev_fwd, prev_inv = set(range(8)), set(range(8))
        for rf, ri in zip(fwd.records, inv.records):
            if rf.phase != sr.PHASE_SAMPLES:
                continue
            kept_f = set(rf.subset.ids.tolist())
            kept_i = set(ri.subset.ids.tolist())
            assert kept_f & kept_i == set()
            assert kept_f | kept_i == prev_fwd & prev_inv if prev_fwd == prev_inv else True
            prev_fwd, prev_inv = kept_f, kept_i

    def test_restricted_sample_scores_change_the_ranking_basis(self, blob_splits, blob_model):
        """With restriction on, per-sample scores sum only masked coordinates."""
        train, valid = blob_splits
        cfg = quick_cfg()
        restricted = sr.ird(blob_model, train, valid, np.arange(8), initial_k=16,
                            cfg=sr.IRDConfig(train=cfg.train, restrict_sample_scores=True))
        mask0 = restricted.initial_mask
        scores = fi.sample_scores(blob_model, train, np.arange(8), restrict=mask0)
        expected = sr._keep_samples(scores, 4, largest=True)
        np.testing.assert_array_equal(restricted.records[0].subset.ids, expected)

    def test_train_on_subset_flag_changes_scores(self, blob_splits, blob_model):
        train, valid = blob_splits
        full = sr.ird(blob_model, train, valid, np.arange(8), initial_k=16,
                      cfg=quick_cfg())
        sub = sr.ird(blob_model, train, valid, np.arange(8), initial_k=16,
                     cfg=sr.IRDConfig(train=quick_cfg().train, train_on_subset=True))
        assert len(full) == len(sub)  # same trajectory shape
        assert [r.score for r in full.records] != [r.score for r in sub.records]

    def test_inverse_keeps_low_fisher_parameters(self, blob_splits, blob_model):
        train, valid = blob_splits
        inv = sr.ird_inverse(blob_model, train, valid, np.arange(8), initial_k=16,
                             cfg=quick_cfg())
        first_subset = inv.records[0].subset
        diag = fi.empirical_fisher(blob_model, train, first_subset.ids)
        initial = inv.initial_mask.selected
        kept = inv.records[1].mask.selected
        dropped = np.setdiff1d(initial, kept)
        assert diag.values[kept].max() <= diag.values[dropped].min()


class TestStaircase:
    def test_four_levels_give_seven_cells(self):
        cells = sr.staircase_cells(4)
        assert len(cells) == 7
        assert cells == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]

    def test_single_level_gives_single_cell(self):
        assert sr.staircase_cells(1) == [(0, 0)]


class TestRunGrid:
    def test_single_cell_grid(self, blob_splits):
        train, valid = blob_splits
        spec = sr.GridSpec((0.3,), (8,), "fish_random", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                             quick_cfg())
        assert len(result.cells) == 1
        assert result.cells[0].status == "ok"

    def test_staircase_cell_count_matches_table_pattern(self, blob_splits):
        """4x4 axes: 7 evaluated cells, the filled pattern of the grids."""
        train, valid = blob_splits
        spec = sr.GridSpec((0.4, 0.2, 0.1, 0.05), (16, 8, 4, 2), "fish_random", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                             quick_cfg())
        assert len(result.cells) == 7
        matrix = result.cell_matrix()
        explored = [(i, j) for i in range(4) for j in range(4)
                    if math.isfinite(matrix[i, j])]
        assert explored == sorted(sr.staircase_cells(4))

    def test_solved_at_init_scores_stay_at_base(self):
        """Zero-residual regression task: training is a no-op at the optimum.

        Integer-valued inputs and weights keep every dot product exact under
        any BLAS blocking, so labels generated by the model equal each batch
        prediction bit for bit, every gradient is exactly 0.0, and no
        optimizer step can move the parameters.
        """
        model = mz.build(mz.ModelSpec("linear_regressor", input_dim=10, num_classes=0, seed=0))
        rng = np.random.default_rng(3)
        model.params.view("w")[...] = rng.integers(-2, 3, size=10).astype(float)
        model.params.view("b")[...] = [1.0]
        X = rng.integers(-3, 4, size=(60, 10)).astype(float)
        ds = dio.Dataset(X, model.predictions(X), "regression")
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        base = 1.0
        spec = sr.GridSpec((0.5, 0.2), (16, 4), "fish_random", (0, 1))
        result = sr.run_grid(spec, sr.Task(train, valid), cfg=quick_cfg(),
                             initial_model=model)
        assert all(cell.score == pytest.approx(base, abs=1e-12) for cell in result.cells)

    def test_degenerate_mask_levels_stop_the_trace_early(self, blob_splits):
        """Axis levels that stop shrinking the mask end the trajectory; the
        remaining cells stay unexplored instead of erroring."""
        train, valid = blob_splits
        model_spec = mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0)
        # |theta| = 21: 0.02 and 0.01 both round to k=1, so only the first
        # halving step is schedulable.
        spec = sr.GridSpec((0.4, 0.02, 0.01), (16, 8, 4), "ird", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid), model_spec, quick_cfg())
        assert len(result.cells) == 3  # initial + one iteration
        matrix = result.cell_matrix()
        assert math.isnan(matrix[2, 2])

    def test_ird_mode_cells_follow_trace(self, blob_splits):
        train, valid = blob_splits
        spec = sr.GridSpec((0.4, 0.2, 0.1), (16, 8, 4), "ird", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                             quick_cfg())
        assert len(result.cells) == 5  # initial + 2 records per iteration
        assert len(result.traces) == 1
        coords = {(c.sparsity, c.n_samples) for c in result.cells}
        assert (0.4, 16) in coords and (0.1, 4) in coords

    def test_initial_cell_identical_across_modes(self, blob_splits):
        train, valid = blob_splits
        model_spec = mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0)
        task = sr.Task(train, valid)
        grids = {}
        for mode in ("fish_random", "ird", "ird_inverse"):
            spec = sr.GridSpec((0.4, 0.2), (16, 4), mode, (0,))
            grids[mode] = sr.run_grid(spec, task, model_spec, quick_cfg())
        anchors = {mode: g.cell_matrix()[0, 0] for mode, g in grids.items()}
        assert anchors["fish_random"] == anchors["ird"] == anchors["ird_inverse"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cells_recorded_as_sentinels(self):
        ds = dio.generate(dio.SyntheticSpec("linear_regression", n=40, dims=4,
                                            noise=0.1, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        cfg = sr.IRDConfig(train=tr.TrainConfig(optimizer="sgd", learning_rate=1e308,
                                                max_epochs=3, batch_size=8))
        spec = sr.GridSpec((0.6, 0.3), (8, 2), "fish_random", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("linear_regressor", input_dim=4,
                                          num_classes=0, seed=1), cfg)
        assert len(result.cells) == 3  # the grid completed
        assert all(c.status == "diverged" for c in result.cells)
        assert all(math.isnan(c.score) for c in result.cells)

    def test_thread_pool_matches_serial(self, blob_splits):
        train, valid = blob_splits
        spec = sr.GridSpec((0.4, 0.2), (16, 4), "fish_random", (0, 1))
        model_spec = mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0)
        serial = sr.run_grid(spec, sr.Task(train, valid), model_spec, quick_cfg())
        pooled = sr.run_grid(spec, sr.Task(train, valid), model_spec, quick_cfg(),
                             max_workers=4)
        assert serial.to_json() == pooled.to_json()

    def test_grid_trains_on_calling_thread(self, blob_splits, monkeypatch):
        """max_workers starts no threads: every fine-tune runs on the caller."""
        import threading
        train, valid = blob_splits
        threads = []
        real = tr.train_masked

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "train_masked", spy)
        spec = sr.GridSpec((0.4, 0.2), (16, 4), "fish_random", (0, 1))
        sr.run_grid(spec, sr.Task(train, valid),
                    mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                    quick_cfg(), max_workers=4)
        assert len(threads) == 6
        assert set(threads) == {threading.get_ident()}

    def test_json_round_trip(self, blob_splits, tmp_path):
        train, valid = blob_splits
        spec = sr.GridSpec((0.4, 0.2), (16, 4), "ird", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                             quick_cfg())
        path = tmp_path / "grid.json"
        sr.save_grid(result, path)
        again = sr.load_grid(path)
        assert again.to_json() == result.to_json()


SPARSITY_LEVELS = (0.025, 0.005, 0.001, 0.0002)   # table rows, percent/100
SAMPLE_LEVELS = (128, 32, 16, 1)

FISH_SST2 = [
    [0.9220, 0.9185, None, None],
    [None, 0.9174, 0.9128, None],
    [None, None, 0.9105, 0.9128],
    [None, None, None, 0.9082],
]
IRD_SST2 = [
    [0.9220, 0.9162, None, None],
    [None, 0.9162, 0.9174, None],
    [None, None, 0.9116, 0.9128],
    [None, None, None, 0.9071],
]
ARROWS_SST2 = [
    ["tie", "down", None, None],
    [None, "down", "up", None],
    [None, None, "up", "tie"],
    [None, None, None, "down"],
]


class TestCompareGrids:
    def test_identical_grids_all_tie(self):
        a = sr.GridResult.from_matrix((0.5, 0.1), (8, 2),
                                      [[0.9, 0.8], [None, 0.7]])
        c = sr.compare_grids(a, a)
        assert (c.ups, c.downs, c.ties) == (0, 0, 3)

    def test_single_cell_improvement_is_one_up(self):
        a = sr.GridResult.from_matrix((0.5, 0.1), (8, 2), [[0.9, 0.8], [None, 0.7]])
        b = sr.GridResult.from_matrix((0.5, 0.1), (8, 2), [[0.9, 0.81], [None, 0.7]])
        c = sr.compare_grids(a, b)
        assert (c.ups, c.downs, c.ties) == (1, 0, 2)
        assert c.symbols[0][1] == "up"

    def test_rounding_to_four_decimals(self):
        a = sr.GridResult.from_matrix((0.5,), (8,), [[0.90001]])
        b = sr.GridResult.from_matrix((0.5,), (8,), [[0.90004]])
        assert sr.compare_grids(a, b).ties == 1

    def test_axis_mismatch_rejected(self):
        a = sr.GridResult.from_matrix((0.5, 0.1), (8, 2), [[0.9, 0.8], [None, 0.7]])
        b = sr.GridResult.from_matrix((0.5, 0.2), (8, 2), [[0.9, 0.8], [None, 0.7]])
        with pytest.raises(ValueError, match="axes"):
            sr.compare_grids(a, b)

    def test_transcribed_reference_matrices_reproduce_arrows(self):
        """The printed up/down placements follow from the scores alone."""
        fish = sr.GridResult.from_matrix(SPARSITY_LEVELS, SAMPLE_LEVELS, FISH_SST2)
        ird_grid = sr.GridResult.from_matrix(SPARSITY_LEVELS, SAMPLE_LEVELS, IRD_SST2)
        c = sr.compare_grids(fish, ird_grid)
        assert c.symbols == ARROWS_SST2
        assert (c.ups, c.downs, c.ties) == (2, 3, 2)
