"""Halving-search mechanics: trace laws, nesting, complementarity, grids."""

import math
import os
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import metrics as met
from fishgrad import models as mz
from fishgrad import search as sr
from fishgrad import training as tr


# Python 3.12 and later run a grid's fine-tunes serially: forking a process
# with a BLAS thread pool warns there.
FORKS = pytest.mark.skipif(sys.version_info >= (3, 12) or not os.path.isdir("/proc/self/fd"),
                           reason="fine-tunes fork only before Python 3.12; fds read on Linux")


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

    @pytest.mark.parametrize("samples,masks,sizes", [
        ([2, 1, 1, 1], [6, 4, 3, 2], ([4, 2, 1], [8, 6, 4])),  # samples reach 1 first
        ([3, 2, 1], [2, 1, 1], ([4, 3, 2], [8, 2, 1])),        # the mask reaches 1 first
    ], ids=["samples", "mask"])
    def test_long_explicit_schedule_stops_at_one_element(self, blob_splits, blob_model,
                                                         samples, masks, sizes):
        train, valid = blob_splits
        trace = sr.ird(blob_model, train, valid, np.arange(4), initial_k=8, cfg=quick_cfg(),
                       sample_targets=samples, mask_targets=masks)
        assert (trace.sample_sizes(), trace.mask_sizes()) == sizes

    @pytest.mark.parametrize("inverse,samples,masks", [
        (False, [6, 3, 2, 1], [7, 4, 2, 1]),  # ceil halves of 11 and 13
        (True, [5, 2, 1], [6, 3, 1]),         # floor halves
    ], ids=["forward", "inverse"])
    def test_default_schedule_is_the_explicit_halving_schedule(self, blob_splits, blob_model,
                                                               inverse, samples, masks):
        train, valid = blob_splits
        x0 = np.arange(11)
        default = sr.ird(blob_model, train, valid, x0, initial_k=13, cfg=quick_cfg(),
                         inverse=inverse)
        explicit = sr.ird(blob_model, train, valid, x0, initial_k=13, cfg=quick_cfg(),
                          inverse=inverse, sample_targets=samples, mask_targets=masks)
        assert len(default) == 2 * len(samples)
        assert default.to_json() == explicit.to_json()

    def test_tied_samples_go_to_the_lower_id_whatever_the_order_of_x0(self):
        """A zero-weight two-class MLP gives every row the same score, so the
        forward search keeps the lower half of the ids and the inverse the
        upper half."""
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=40, dims=4, classes=2,
                                            noise=0.5, seed=0))
        train, valid = dio.train_valid_split(ds, 0.2, seed=0)
        model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(3,), num_classes=2))
        model.params.data[:] = 0.0
        x0 = np.array([30, 4, 8, 1, 9, 2])
        assert np.unique(fi.sample_scores(model, train, x0)).size == 1
        for inverse, kept in ((False, [1, 2, 4]), (True, [8, 9, 30])):
            trace = sr.ird(model, train, valid, x0, initial_k=2, cfg=quick_cfg(),
                           inverse=inverse)
            np.testing.assert_array_equal(trace.records[0].subset.ids, kept)

    def test_reproducible_traces(self, blob_splits, blob_model):
        train, valid = blob_splits
        runs = [sr.ird(blob_model, train, valid, np.arange(8), initial_k=8,
                       cfg=quick_cfg(seed=5)) for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()


class TestInverseComplementarity:
    def test_median_split_example(self):
        """Scores 1..4: forward keeps the {3,4}-scored ids, inverse {1,2}."""
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        fwd = fi.top_k_within(scores, np.arange(4), 2)
        inv = fi.top_k_within(scores, np.arange(4), 2, keep_largest=False)
        np.testing.assert_array_equal(fwd, [2, 3])
        np.testing.assert_array_equal(inv, [0, 1])

    def test_fifty_random_vectors_partition(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            values = rng.permutation(n * 10)[:n].astype(float)  # distinct
            fwd = fi.top_k_within(values, np.arange(n), math.ceil(n / 2))
            inv = fi.top_k_within(values, np.arange(n), n // 2, keep_largest=False)
            assert len(np.intersect1d(fwd, inv)) == 0
            np.testing.assert_array_equal(np.union1d(fwd, inv), np.arange(n))
            if len(inv):
                assert values[fwd].min() > values[inv].max()

    def test_tie_at_median_goes_to_kept_larger_side_by_lower_id(self):
        scores = np.array([5.0, 3.0, 3.0, 1.0])
        fwd = fi.top_k_within(scores, np.arange(4), 2)
        inv = fi.top_k_within(scores, np.arange(4), 2, keep_largest=False)
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
        expected = fi.top_k_within(scores, np.arange(8), 4)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_on_last_step_recorded_as_diverged(self):
        """A step that overflows every parameter but is its epoch's last is
        never seen by a loss check; the cell must not be reported ok."""
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=200, dims=6,
                                            classes=2, noise=1.0, seed=0))
        ds = dio.Dataset(ds.inputs * 100, ds.labels, ds.task, ds.num_classes)
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        cfg = sr.IRDConfig(train=tr.TrainConfig(optimizer="sgd", learning_rate=1e308,
                                                batch_size=512, max_epochs=1))
        spec = sr.GridSpec((0.6,), (8,), "fish_random", (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=1), cfg)
        assert [c.status for c in result.cells] == ["diverged"]
        assert math.isnan(result.cells[0].score)

    @pytest.mark.parametrize("mode", ["fish_random", "ird"])
    def test_undefined_scores_recorded_per_cell(self, mode):
        """Validation inputs that are one row repeated give constant
        predictions, on which a correlation is undefined: every cell is
        recorded ``undefined`` with a null score and the grid completes."""
        ds = dio.generate(dio.SyntheticSpec("linear_regression", n=80, dims=4,
                                            noise=0.1, seed=0))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        valid = dio.Dataset(np.repeat(valid.inputs[:1], len(valid), axis=0),
                            valid.labels, "regression")
        spec = sr.GridSpec((0.6, 0.3), (16, 4), mode, (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("linear_regressor", input_dim=4,
                                          num_classes=0, seed=1), quick_cfg())
        assert len(result.cells) == 3
        assert [c.status for c in result.cells] == ["undefined"] * 3
        assert [c.to_json()["score"] for c in result.cells] == [None] * 3

    def test_only_undefined_metrics_are_caught(self):
        with pytest.raises(met.UndefinedMetric):
            met.pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError) as info:
            met.pearson([1.0], [2.0])
        assert not isinstance(info.value, met.UndefinedMetric)

    @pytest.mark.parametrize("mode", ["fish_random", "ird"])
    def test_cells_scored_on_the_early_stopping_metric(self, mode, monkeypatch):
        """Every metric reading uses TrainConfig.metric, and each cell's score
        is its fine-tune's last validation reading: no inference after
        training."""
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=120, dims=6,
                                            classes=2, noise=1.5, seed=4))
        train, valid = dio.train_valid_split(ds, 0.25, seed=0)
        metrics_used, last_readings, epochs = [], [], []
        real_score, real_train = met.score, tr.train_group

        def score_spy(metric, model, dataset):
            metrics_used.append(metric)
            return real_score(metric, model, dataset)

        def train_spy(*args, **kwargs):
            outcomes = real_train(*args, **kwargs)
            last_readings.extend(report.val_metrics[-1] for report in outcomes)
            epochs.extend(report.epochs_run for report in outcomes)
            return outcomes

        monkeypatch.setattr(met, "score", score_spy)
        monkeypatch.setattr(tr, "train_group", train_spy)
        cfg = sr.IRDConfig(train=tr.TrainConfig(learning_rate=0.05, max_epochs=3,
                                                metric="mcc"))
        spec = sr.GridSpec((0.4, 0.2), (16, 4), mode, (0,))
        result = sr.run_grid(spec, sr.Task(train, valid),
                             mz.ModelSpec("logreg", input_dim=6, num_classes=2, seed=0), cfg)
        assert set(metrics_used) == {"mcc"}
        assert len(metrics_used) == sum(epochs)
        assert [c.score for c in result.cells] == last_readings

    def test_thread_pool_matches_serial(self, blob_splits, monkeypatch):
        """Any worker count gives the serial grid, in every mode, fine-tuning
        on all rows or on the subsets: groups fine-tune in forked workers as
        they do in one process."""
        monkeypatch.setattr(sr, "_usable_cores", lambda: 4)
        train, valid = blob_splits
        model_spec = mz.ModelSpec("mlp", input_dim=6, hidden=(8,), num_classes=3, seed=0)
        for mode in sr.MODES:
            for on_subset in (False, True):
                spec = sr.GridSpec((0.4, 0.2), (16, 4), mode, (0, 1))
                cfg = replace(quick_cfg(), train_on_subset=on_subset)
                grids = [sr.run_grid(spec, sr.Task(train, valid), model_spec, cfg,
                                     max_workers=workers).to_json() for workers in (1, 2, 3, 4)]
                assert all(grid == grids[0] for grid in grids[1:]), (mode, on_subset)

    @staticmethod
    def process_state():
        """Open fds, live threads, and whether this process has a child left."""
        try:
            os.waitpid(-1, os.WNOHANG)
            child = True
        except ChildProcessError:
            child = False
        return len(os.listdir("/proc/self/fd")), threading.active_count(), child

    @FORKS
    def test_grid_fine_tunes_in_forked_workers(self, blob_splits, monkeypatch, tmp_path):
        """max_workers=4 runs six one-job groups in four processes, the
        caller's and three forked ones, but never splits a group: two seeds'
        groups of three run in two. No child, thread or fd is left behind."""
        monkeypatch.setattr(sr, "_usable_cores", lambda: 4)
        train, valid = blob_splits
        real = tr.train_group

        def spy(*args, **kwargs):
            with open(tmp_path / "pids", "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        def pids(cfg, max_workers=4):
            (tmp_path / "pids").write_text("")
            sr.run_grid(sr.GridSpec((0.4, 0.2), (16, 4), "fish_random", (0, 1)),
                        sr.Task(train, valid),
                        mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0), cfg,
                        max_workers=max_workers)
            return set((tmp_path / "pids").read_text().split())

        monkeypatch.setattr(tr, "train_group", spy)
        before = self.process_state()
        on_subsets = pids(replace(quick_cfg(), train_on_subset=True))
        assert len(on_subsets) == 4 and str(os.getpid()) in on_subsets
        assert len(pids(quick_cfg())) == 2
        assert self.process_state() == before == before[:2] + (False,)
        # Python 3.12 and later warn on a fork with threads: the chunks run here.
        monkeypatch.setattr(sr, "sys", SimpleNamespace(version_info=(3, 12, 0)))
        assert pids(replace(quick_cfg(), train_on_subset=True)) == {str(os.getpid())}
        with pytest.raises(ValueError, match="max_workers"):
            pids(quick_cfg(), max_workers=0)

    @FORKS
    @pytest.mark.parametrize("failure,error,match", [
        ("raises", OverflowError, "in a worker"),
        ("dies", RuntimeError, "exited without a result"),
    ])
    def test_a_failing_worker_fails_the_grid(self, blob_splits, monkeypatch, failure, error,
                                             match):
        """A worker's exception is raised again in the caller, as its own
        type; a worker that dies without a reply raises RuntimeError. Either
        way every child is reaped and every pipe closed."""
        monkeypatch.setattr(sr, "_usable_cores", lambda: 4)
        train, valid = blob_splits
        caller, real = os.getpid(), tr.train_group

        def spy(*args, **kwargs):
            if os.getpid() != caller:
                if failure == "dies":
                    os._exit(3)
                raise OverflowError("in a worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "train_group", spy)
        spec = sr.GridSpec((0.4, 0.2), (16, 4), "ird", (0, 1))
        before = self.process_state()
        with pytest.raises(error, match=match):
            sr.run_grid(spec, sr.Task(train, valid),
                        mz.ModelSpec("logreg", input_dim=6, num_classes=3, seed=0),
                        quick_cfg(), max_workers=2)
        assert self.process_state() == before

    def test_seeds_in_one_grid_equal_seeds_apart(self, monkeypatch):
        """Fine-tunes group per master seed: a grid over seeds (0, 1) gives
        the cells and traces of grids over (0,) and (1,) run apart."""
        ds = dio.generate(dio.SyntheticSpec("xor_ring", n=300, dims=8, noise=0.35, seed=12))
        task = sr.Task(*dio.train_valid_split(ds, 0.25, seed=0))
        model_spec = mz.ModelSpec("mlp", input_dim=8, hidden=(400,), num_classes=2, seed=3)
        group_sizes = []
        real_heads = tr._train_heads

        def spy(models, *args):
            group_sizes.append(len(models))
            return real_heads(models, *args)

        monkeypatch.setattr(tr, "_train_heads", spy)
        grids = [sr.run_grid(sr.GridSpec((0.025, 0.005, 0.001, 0.0002), (64, 16, 8, 1),
                                         "ird", seeds), task, model_spec, quick_cfg())
                 for seeds in [(0, 1), (0,), (1,)]]
        assert group_sizes[:2] == [7, 7]
        together, apart = grids[0].to_json(), [g.to_json() for g in grids[1:]]
        assert together["cells"] == apart[0]["cells"] + apart[1]["cells"]
        assert together["traces"] == apart[0]["traces"] + apart[1]["traces"]

    @pytest.mark.parametrize("mode,sparsity,samples,match", [
        ("ird", (0.025,), (1,), "at least 2 initial samples"),
        ("ird", (0.0002, 0.0001), (32, 16), "at least 2 parameters"),
        ("ird", (0.025, 0.005), (10_000, 16), "cannot draw"),
        ("fish_random", (0.025, 0.005), (10_000, 16), "cannot draw"),
    ])
    def test_bad_schedules_fail_before_any_fine_tune(self, mode, sparsity, samples, match,
                                                     monkeypatch):
        """Every seed's jobs are planned before the first fine-tune, so a
        schedule that cannot run raises without a single training pass."""
        ds = dio.generate(dio.SyntheticSpec("xor_ring", n=200, dims=8, seed=12))
        task = sr.Task(*dio.train_valid_split(ds, 0.25, seed=0))
        passes = []
        monkeypatch.setattr(mz.DensePass, "loss_gradient", lambda *a: passes.append(a))
        monkeypatch.setattr(tr.ad, "loss_gradient", lambda *a: passes.append(a))
        spec = sr.GridSpec(sparsity, samples, mode, (0, 1))
        with pytest.raises(ValueError, match=match):
            sr.run_grid(spec, task, mz.ModelSpec("mlp", input_dim=8, hidden=(400,),
                                                 num_classes=2), quick_cfg())
        assert passes == []

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
