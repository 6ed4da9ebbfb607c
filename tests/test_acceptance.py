"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Numeric tolerances are pinned here and nowhere else. The statistical
criteria (08-10) run fixed seed sets, so their outcomes are deterministic
for a given library version.
"""

import math
import time

import numpy as np
import pytest

from fishgrad import autodiff as ad
from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import metrics as met
from fishgrad import models as mz
from fishgrad import search as sr
from fishgrad import training as tr

from support import grid_from_matrix, zoo_specs


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed {detail}"


def _zoo_batch(spec, rng):
    if spec.kind == "tiny_attention":
        return (rng.integers(0, spec.input_dim, size=(2, 5)),
                rng.integers(0, spec.num_classes, size=2))
    X = rng.normal(size=(3, spec.input_dim))
    if spec.kind == "linear_regressor":
        return X, rng.normal(size=3)
    return X, rng.integers(0, spec.num_classes, size=3)


def test_criterion_01_gradient_correctness():
    """Autodiff vs central differences (h=1e-4): rel err <= 1e-5, all params,
    every zoo model, 5 seeds, under 30 s."""
    started = time.time()
    worst = 0.0
    for seed in range(5):
        for spec in zoo_specs(seed=seed):
            model = mz.build(spec)
            X, y = _zoo_batch(spec, np.random.default_rng(seed + 100))
            grad = ad.loss_gradient(model, X, y)[1]
            fd = ad.finite_difference_gradient(
                lambda: float(model.loss_mean(ad.Tape(), X, y).data),
                model.params.data, h=1e-4)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - started
    _report(1, "gradient correctness", worst <= 1e-5 and elapsed < 30,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_fisher_oracle_equality():
    """Diagonal estimator equals the per-sample squared-gradient loop to
    <= 1e-12 absolute, 10 random subsets, models <= 1e4 params, under 30 s."""
    started = time.time()
    rng = np.random.default_rng(7)
    specs = [mz.ModelSpec("mlp", input_dim=64, hidden=(32,), num_classes=3, seed=1),
             mz.ModelSpec("logreg", input_dim=20, num_classes=4, seed=2)]
    worst = 0.0
    for spec in specs:
        model = mz.build(spec)
        assert model.num_params <= 10_000
        ds = dio.Dataset(rng.normal(size=(30, spec.input_dim)),
                         rng.integers(0, spec.num_classes, size=30),
                         "multiclass", spec.num_classes)
        for _ in range(5):
            ids = np.sort(rng.choice(30, size=int(rng.integers(1, 30)), replace=False))
            got = fi.empirical_fisher(model, ds, ids).values
            oracle = np.zeros(model.num_params)
            for g in ad.per_sample_gradients(model, ds.inputs[ids], ds.labels[ids]):
                oracle += g * g
            oracle /= len(ids)
            worst = max(worst, float(np.abs(got - oracle).max()))
    elapsed = time.time() - started
    _report(2, "fisher oracle equality", worst <= 1e-12 and elapsed < 30,
            f"(max abs diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_expectation_consistency():
    """Label-expectation estimator on a saturated classifier matches the
    ground-truth-label estimator with argmax labels within 1e-9."""
    model = mz.build(mz.ModelSpec("logreg", input_dim=3, num_classes=3, seed=4))
    model.params.data *= 200.0
    rng = np.random.default_rng(1)
    pool = rng.normal(size=(40, 3))
    X = pool[[np.exp(model.log_probs(x)).max() > 1 - 1e-12 for x in pool]][:5]
    ds = dio.Dataset(X, model.predictions(X), "multiclass", 3)
    diff = np.abs(fi.expectation_fisher(model, ds).values
                  - fi.empirical_fisher(model, ds).values).max()
    _report(3, "expectation consistency", diff <= 1e-9, f"(max diff {diff:.2e})")


def test_criterion_04_mask_correctness():
    """Top-k mask equals the full-sort oracle (lowest-index ties) on 100
    random vectors plus the all-ties vector; cardinality formula holds on the
    published sparsity levels."""
    rng = np.random.default_rng(3)
    vectors = [rng.random(rng.integers(5, 300)) for _ in range(100)]
    vectors.append(np.zeros(64))  # all ties
    ok = True
    for values in vectors:
        k = int(rng.integers(1, len(values) + 1))
        diag = fi.FisherDiagonal(values, "empirical", [0], "h")
        got = fi.top_k_mask(diag, k=k).selected
        oracle = np.sort(sorted(range(len(values)), key=lambda i: (-values[i], i))[:k])
        ok &= bool(np.array_equal(got, oracle))
    counts = {}
    for n in (67, 10_000):
        for rho in (0.0002, 0.001, 0.005, 0.025):
            diag = fi.FisherDiagonal(rng.random(n), "empirical", [0], "h")
            size = fi.top_k_mask(diag, sparsity=rho).size
            counts[(n, rho)] = size
            ok &= size == max(1, int(math.floor(rho * n + 0.5)))
    _report(4, "mask correctness", ok, f"(cardinalities {counts})")


def test_criterion_05_frozen_coordinates_and_dense_equivalence():
    """Sparsity 0.5 for 3 epochs leaves unmasked params bit-identical;
    sparsity 1.0 reproduces dense training bit-for-bit."""
    ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=240, dims=8, classes=3,
                                        noise=0.5, seed=21))
    train, valid = dio.train_valid_split(ds, 0.2, seed=0)
    spec = mz.ModelSpec("mlp", input_dim=8, hidden=(10,), num_classes=3, seed=5)
    cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=3, seed=9)

    model = mz.build(spec)
    before = model.params.data.copy()
    half = fi.top_k_mask(fi.empirical_fisher(model, train, np.arange(32)), sparsity=0.5)
    tr.train_masked(model, half, train, valid, cfg)
    untouched = np.setdiff1d(np.arange(model.num_params), half.selected)
    frozen_ok = bool(np.array_equal(model.params.data[untouched], before[untouched]))

    masked_model, dense_model = mz.build(spec), mz.build(spec)
    full = fi.Mask(np.arange(masked_model.num_params), 1.0, masked_model.num_params)
    rep_a = tr.train_masked(masked_model, full, train, valid, cfg)
    rep_b = tr.train_masked(dense_model, None, train, valid, cfg)
    dense_ok = bool(np.array_equal(masked_model.params.data, dense_model.params.data)
                    and rep_a.train_losses == rep_b.train_losses)
    _report(5, "frozen coordinates / dense equivalence", frozen_ok and dense_ok,
            f"(frozen={frozen_ok}, dense={dense_ok})")


def test_criterion_06_trace_length_law():
    """|S| = 2*min(log2 |X0|, log2 k) for power-of-two inputs, with strict
    nesting of sample subsets and masks at every step."""
    ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=300, dims=128,
                                        classes=2, noise=0.8, seed=31))
    train, valid = dio.train_valid_split(ds, 0.25, seed=0)
    model = mz.build(mz.ModelSpec("mlp", input_dim=128, hidden=(32,), num_classes=2, seed=6))
    assert model.num_params >= 2048
    cfg = sr.IRDConfig(train=tr.TrainConfig(learning_rate=0.05, max_epochs=2, seed=0))
    ok = True
    observed = {}
    for n0, k0 in ((8, 16), (16, 16), (128, 2048)):
        trace = sr.ird(model, train, valid, np.arange(n0), initial_k=k0, cfg=cfg)
        expected = 2 * min(int(math.log2(n0)), int(math.log2(k0)))
        observed[(n0, k0)] = len(trace)
        ok &= len(trace) == expected
        subsets = [set(trace.initial_subset.ids.tolist())] + [
            set(r.subset.ids.tolist()) for r in trace.records if r.phase == sr.PHASE_SAMPLES]
        masks = [set(trace.initial_mask.selected.tolist())] + [
            set(r.mask.selected.tolist()) for r in trace.records if r.phase == sr.PHASE_PARAMS]
        ok &= all(b < a for a, b in zip(subsets, subsets[1:]))
        ok &= all(b < a for a, b in zip(masks, masks[1:]))
    _report(6, "trace length law", ok, f"(|S| observed {observed})")


def test_criterion_07_inverse_complementarity():
    """With distinct scores the kept halves of the forward and inverse
    searches partition the sample set; 50 random score vectors."""
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 64))
        values = rng.permutation(n * 7)[:n].astype(float)
        fwd = fi.top_k_within(values, np.arange(n), math.ceil(n / 2))
        inv = fi.top_k_within(values, np.arange(n), n // 2, keep_largest=False)
        ok &= len(np.intersect1d(fwd, inv)) == 0
        ok &= bool(np.array_equal(np.union1d(fwd, inv), np.arange(n)))
    _report(7, "inverse complementarity", ok, "(50 vectors)")


def test_criterion_08_fisher_mask_beats_random():
    """Score-ranked masks beat random masks at 10% sparsity in at least 14 of
    20 seeded trials on the 3-class blobs task, under 5 minutes."""
    started = time.time()
    wins = 0
    for trial in range(20):
        ds = dio.generate(dio.SyntheticSpec("gaussian_blobs", n=2000, dims=32,
                                            classes=3, noise=1.0, seed=100 + trial))
        train, valid = dio.train_valid_split(ds, 0.2, seed=trial)
        base = mz.build(mz.ModelSpec("mlp", input_dim=32, hidden=(16,),
                                     num_classes=3, seed=trial))
        scored = fi.top_k_mask(fi.empirical_fisher(base, train, np.arange(64)),
                               sparsity=0.10)
        random = fi.random_mask(base.num_params, 0.10, seed=1000 + trial)
        cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=6, batch_size=32, seed=trial)
        acc = {}
        for name, mask in (("scored", scored), ("random", random)):
            candidate = base.clone()
            tr.train_masked(candidate, mask, train, valid, cfg)
            acc[name] = met.score("accuracy", candidate, valid)
        wins += acc["scored"] >= acc["random"]
    elapsed = time.time() - started
    _report(8, "scored mask beats random", wins >= 14 and elapsed < 300,
            f"({wins}/20 trials, {elapsed:.0f}s)")


GRID_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def staircase_grids():
    """fish/ird/inverse grids on two tasks, shared by criteria 09 and 10."""
    started = time.time()
    tasks = {
        "blobs": (dio.SyntheticSpec("gaussian_blobs", n=600, dims=64, classes=3,
                                    noise=0.7, seed=11),
                  mz.ModelSpec("mlp", input_dim=64, hidden=(48,), num_classes=3, seed=0),
                  tr.TrainConfig(learning_rate=0.08, max_epochs=10, batch_size=32)),
        "xor": (dio.SyntheticSpec("xor_ring", n=600, dims=8, classes=2,
                                  noise=0.35, seed=12),
                mz.ModelSpec("mlp", input_dim=8, hidden=(400,), num_classes=2, seed=0),
                tr.TrainConfig(learning_rate=0.05, max_epochs=8, batch_size=32)),
    }
    grids = {}
    for name, (dspec, mspec, train_cfg) in tasks.items():
        train, valid = dio.train_valid_split(dio.generate(dspec), 0.25, seed=0)
        task = sr.Task(train, valid)
        cfg = sr.IRDConfig(train=train_cfg)
        grids[name] = {mode: sr.run_grid(sr.GridSpec(mode=mode, seeds=GRID_SEEDS),
                                         task, mspec, cfg)
                       for mode in ("fish_random", "ird", "ird_inverse")}
    return grids, time.time() - started


def _per_seed_best(grid):
    best = {}
    for cell in grid.cells:
        if cell.status == "ok":
            best[cell.seed] = max(best.get(cell.seed, -np.inf), cell.score)
    return best


def test_criterion_09_ird_vs_random_sample_fish(staircase_grids):
    """Per master seed, the halving search's best cell scores within 0.01 of
    the random-sample baseline's best cell in >= 7 of 10 seeds, per task."""
    grids, build_time = staircase_grids
    ok = True
    details = []
    for name, by_mode in grids.items():
        fish = _per_seed_best(by_mode["fish_random"])
        searched = _per_seed_best(by_mode["ird"])
        hits = sum(searched[s] >= fish[s] - 0.01 for s in GRID_SEEDS)
        details.append(f"{name}:{hits}/10")
        ok &= hits >= 7
    ok &= build_time < 600
    _report(9, "halving search vs random-sample baseline", ok,
            f"({', '.join(details)}, grids built in {build_time:.0f}s)")


def test_criterion_10_inverse_degrades(staircase_grids):
    """The below-median control never improves on the forward search: its
    best cell is <= the forward best in >= 7 of 10 seeds, per task."""
    grids, _ = staircase_grids
    ok = True
    details = []
    for name, by_mode in grids.items():
        searched = _per_seed_best(by_mode["ird"])
        control = _per_seed_best(by_mode["ird_inverse"])
        hits = sum(control[s] <= searched[s] for s in GRID_SEEDS)
        details.append(f"{name}:{hits}/10")
        ok &= hits >= 7
    _report(10, "inverse control degrades", ok, f"({', '.join(details)})")


def test_criterion_11_metric_fixtures():
    """Hand-evaluated metric values at 1e-12."""
    checks = {
        "mcc": abs(met.mcc([1, 1, 0, 0], [1, 0, 0, 0]) - 2 / math.sqrt(12)),
        "spearman": abs(met.spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8),
        "combined": abs(met.combined_score([1, 1, 1, 0, 0, 0, 0, 0],
                                           [1, 1, 0, 1, 0, 0, 0, 0])
                        - (2 / 3 + 0.75) / 2),
    }
    ok = all(v <= 1e-12 for v in checks.values())
    _report(11, "metric fixtures", ok,
            "(" + ", ".join(f"{k} err {v:.1e}" for k, v in checks.items()) + ")")


REFERENCE_SPARSITY = (0.025, 0.005, 0.001, 0.0002)
REFERENCE_SAMPLES = (128, 32, 16, 1)
REFERENCE_BASELINE = [
    [0.9220, 0.9185, None, None],
    [None, 0.9174, 0.9128, None],
    [None, None, 0.9105, 0.9128],
    [None, None, None, 0.9082],
]
REFERENCE_CANDIDATE = [
    [0.9220, 0.9162, None, None],
    [None, 0.9162, 0.9174, None],
    [None, None, 0.9116, 0.9128],
    [None, None, None, 0.9071],
]
REFERENCE_ARROWS = [
    ["tie", "down", None, None],
    [None, "down", "up", None],
    [None, None, "up", "tie"],
    [None, None, None, "down"],
]


def test_criterion_12_report_fidelity():
    """compare_grids on the transcribed reference matrices reproduces the
    printed up/down placements exactly."""
    baseline = grid_from_matrix(REFERENCE_SPARSITY, REFERENCE_SAMPLES,
                                REFERENCE_BASELINE)
    candidate = grid_from_matrix(REFERENCE_SPARSITY, REFERENCE_SAMPLES,
                                 REFERENCE_CANDIDATE)
    comparison = sr.compare_grids(baseline, candidate)
    ok = comparison.symbols == REFERENCE_ARROWS
    _report(12, "report fidelity", ok,
            f"(ups={comparison.ups} downs={comparison.downs} ties={comparison.ties})")


def test_criterion_13_early_stopping():
    """Flat 0.5 with patience 10 / threshold 0.3 stops at epoch 11; flat 0.2
    never stops on the rule."""
    stops_at_11 = (not tr.early_stop_check([0.5] * 10, 10, 0.3)
                   and tr.early_stop_check([0.5] * 11, 10, 0.3))
    never = not any(tr.early_stop_check([0.2] * n, 10, 0.3) for n in range(1, 60))
    _report(13, "early stopping", stops_at_11 and never,
            f"(stop@11={stops_at_11}, below-threshold never={never})")
