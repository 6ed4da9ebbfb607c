"""CLI pipeline: subcommand wiring, exit codes, manifest reproducibility."""

import argparse
import json
import time

import pytest

from fishgrad import cli
from fishgrad import fisher as fi
from fishgrad import models as mz
from fishgrad import training as tr


# A mask file around its selected indices, and a checkpoint's header line
# around its keys after ``format``, for the malformed-file table below.
MASK = '{"selected": %s, "sparsity": 0.5, "num_params": 4}'
CKPT = '{"format": "%s", %%s}\n' % mz.CHECKPOINT_FORMAT
GRID_SPEC = {"sparsity_levels": [0.5, 0.25], "sample_levels": [8, 4], "mode": "ird",
             "seeds": [0]}
GRID_CELLS = [{"sparsity": 0.5, "n_samples": 8, "seed": 0, "score": 0.75, "status": "ok"},
              {"sparsity": 0.5, "n_samples": 4, "seed": 0, "score": None, "status": "diverged"},
              {"sparsity": 0.25, "n_samples": 4, "seed": 0, "score": 0.5, "status": "ok"}]


def grid(spec=None, cell=None):
    """A valid 2-level grid file's text, with the keys ``spec`` or ``cell``
    replaced in its spec or its first cell."""
    cells = [{**GRID_CELLS[0], **(cell or {})}, *GRID_CELLS[1:]]
    return json.dumps({"result": {"spec": {**GRID_SPEC, **(spec or {})}, "cells": cells}})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


class TestPipeline:
    def test_gen_fisher_mask_train_report_composes(self, workspace, capsys):
        """The full shipped-fixture pipeline completes quickly."""
        started = time.time()
        w = workspace
        assert cli.main(["gen-data", "--generator", "gaussian_blobs", "--n", "160",
                         "--dims", "6", "--classes", "2", "--noise", "0.4",
                         "--seed", "3", "--out", str(w / "d.jsonl")]) == 0
        assert cli.main(["fisher", "--data", str(w / "d.jsonl"),
                         "--model-config", '{"kind": "logreg", "seed": 1}',
                         "--samples", "16", "--seed", "0",
                         "--out", str(w / "f.json"),
                         "--save-model", str(w / "m.ckpt")]) == 0
        assert cli.main(["mask", "--fisher", str(w / "f.json"), "--sparsity", "0.25",
                         "--out", str(w / "mask.json")]) == 0
        assert cli.main(["train", "--data", str(w / "d.jsonl"),
                         "--model", str(w / "m.ckpt"),
                         "--mask", str(w / "mask.json"),
                         "--config", '{"learning_rate": 0.1, "max_epochs": 5}',
                         "--seed", "0", "--out", str(w / "train.json")]) == 0
        for mode, out in (("fish", "a.json"), ("ird", "b.json")):
            assert cli.main(["grid", "--data", str(w / "d.jsonl"),
                             "--model-config", '{"kind": "logreg", "seed": 1}',
                             "--mode", mode, "--sparsity-levels", "0.2,0.1",
                             "--sample-levels", "16,4", "--seeds", "0",
                             "--config", '{"learning_rate": 0.1, "max_epochs": 4}',
                             "--out", str(w / out)]) == 0
        assert cli.main(["report", "--baseline", str(w / "a.json"),
                         "--candidate", str(w / "b.json"),
                         "--out", str(w / "rpt")]) == 0
        for name in ("comparison.csv", "comparison.json", "baseline.svg", "candidate.svg"):
            assert (w / "rpt" / name).exists()
        report = json.loads((w / "train.json").read_text())
        assert report["result"]["epochs_run"] == 5
        assert time.time() - started < 60

    def test_mask_cardinality_from_cli(self, workspace, capsys):
        """sparsity 0.005 on a 400-parameter model selects round(2.0) = 2."""
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "199", "--noise", "0.5",
                  "--seed", "0", "--out", str(w / "d.jsonl")])
        cli.main(["fisher", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 0}',
                  "--samples", "8", "--seed", "0", "--out", str(w / "f.json")])
        cli.main(["mask", "--fisher", str(w / "f.json"), "--sparsity", "0.005",
                  "--out", str(w / "mask.json")])
        mask = json.loads((w / "mask.json").read_text())["result"]
        assert mask["num_params"] == 199 * 2 + 2
        assert len(mask["selected"]) == max(1, round(0.005 * 400))

    def test_report_on_identical_grids_is_all_ties(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "80", "--dims", "4", "--noise", "0.4",
                  "--seed", "1", "--out", str(w / "d.jsonl")])
        cli.main(["grid", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 2}',
                  "--mode", "fish", "--sparsity-levels", "0.3,0.1",
                  "--sample-levels", "8,2", "--seeds", "0",
                  "--config", '{"learning_rate": 0.1, "max_epochs": 2}',
                  "--out", str(w / "g.json")])
        cli.main(["report", "--baseline", str(w / "g.json"),
                  "--candidate", str(w / "g.json"), "--out", str(w / "rpt")])
        comparison = json.loads((w / "rpt" / "comparison.json").read_text())["result"]
        assert comparison["ups"] == 0 and comparison["downs"] == 0
        assert comparison["ties"] == 3


class TestExitCodes:
    def test_usage_error_is_one_with_json_stderr(self, capsys):
        code, _, err = run(capsys, "mask", "--sparsity", "0.1", "--out", "x.json")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen-data", "--nope", "3")
        assert code == 1
        assert "message" in json.loads(err)

    def test_validation_error_is_two(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        cli.main(["fisher", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 0}',
                  "--samples", "8", "--out", str(w / "f.json")])
        code, _, err = run(capsys, "mask", "--fisher", str(w / "f.json"),
                           "--sparsity", "7.0", "--out", str(w / "m.json"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "sparsity" in payload["message"]

    @pytest.mark.parametrize("config", [
        '{"loss": "nll"}',            # the loss is fixed by the model head
        '{"metric": "acuracy"}',      # not a metric
        '{"metric": "pearson"}',      # a regression metric on a classifier
        '{"max_seq_length": 128}',    # not a train setting
    ], ids=["loss-key", "unknown-metric", "metric-head-mismatch", "max-seq-length"])
    def test_bad_train_config_is_two(self, workspace, capsys, config):
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        code, _, err = run(capsys, "train", "--data", str(w / "d.jsonl"),
                           "--config", config, "--out", str(w / "r.json"))
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"
        assert not (w / "r.json").exists()

    def test_hidden_widths_not_a_list_is_two(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "20", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        code, _, err = run(capsys, "fisher", "--data", str(w / "d.jsonl"),
                           "--model-config", '{"hidden": 8}', "--out", str(w / "f.json"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "hidden" in payload["message"]
        assert not (w / "f.json").exists()

    @pytest.mark.parametrize("config,named", [
        ('{"input_dim": "2"}', "input_dim must be at least 1 and an integer"),
        ('{"num_classes": 2.5}', "num_classes must be at least 2 and an integer"),
        ('{"seed": "x"}', "seed must be at least 0 and an integer"),
    ], ids=["string-input-dim", "fractional-classes", "string-seed"])
    def test_non_integer_model_size_is_two(self, workspace, capsys, config, named):
        w = workspace
        cli.main(["gen-data", "--n", "20", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        code, _, err = run(capsys, "fisher", "--data", str(w / "d.jsonl"),
                           "--model-config", config, "--out", str(w / "f.json"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert named in payload["message"]
        assert not (w / "f.json").exists()

    @pytest.mark.parametrize("argv,named", [
        (["gen-data", "--noise", "nan"], "noise must be in [0, inf), got nan"),
        (["fisher", "--samples", "-3"], "samples must be at least 1 and an integer, got -3"),
        (["fisher", "--seed", "-1"], "--seed must be at least 0 and an integer, got -1"),
        (["mask", "--random", "--num-params", "-5", "--sparsity", "0.1"],
         "num_params must be at least 1 and an integer, got -5"),
        (["ird", "--samples", "8", "--sparsity", "0.5", "--mask-size", "3"],
         "need --sparsity or --mask-size, not both or neither"),
        (["ird", "--samples", "8"], "need --sparsity or --mask-size, not both or neither"),
        (["ird", "--samples", "8", "--mask-size", "0"],
         "--mask-size must be at least 1 and an integer, got 0"),
        (["gen-data", "--n", "2.5"], "n must be at least 4 and an integer, got '2.5'"),
        (["gen-data", "--seed", "1.5"], "--seed must be at least 0 and an integer, got '1.5'"),
    ], ids=["nan-noise", "negative-samples", "negative-seed", "negative-num-params",
            "sparsity-and-mask-size", "neither-sparsity-nor-mask-size", "zero-mask-size",
            "fractional-n", "fractional-seed"])
    def test_bad_number_is_two_with_no_output(self, workspace, capsys, argv, named):
        w = workspace
        cli.main(["gen-data", "--n", "20", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        data = ["--data", str(w / "d.jsonl")] if argv[0] in ("fisher", "ird") else []
        code, _, err = run(capsys, *argv, *data, "--out", str(w / "out.json"))
        assert code == 2
        assert named in json.loads(err)["message"]
        assert not (w / "out.json").exists()

    @pytest.mark.parametrize("flags,named", [
        ([], "need --sparsity or --mask-size"),
        (["--sparsity", "0.5", "--mask-size", "3"], "need --sparsity or --mask-size"),
        (["--mask-size", "0"], "--mask-size must be at least 1"),
        (["--sparsity", "1.5"], "--sparsity must be in (0, 1]"),
    ], ids=["neither", "both", "zero-mask-size", "sparsity-above-one"])
    def test_ird_checks_mask_flags_before_loading_data(self, workspace, capsys, monkeypatch,
                                                       flags, named):
        def no_load(*args, **kwargs):
            raise AssertionError("the data was loaded")

        monkeypatch.setattr(cli.dio, "load", no_load)
        code, _, err = run(capsys, "ird", "--data", "d.jsonl", "--samples", "8", *flags,
                           "--out", str(workspace / "out.json"))
        assert code == 2
        assert named in json.loads(err)["message"]
        assert not (workspace / "out.json").exists()

    def test_constant_regression_labels_are_two(self, workspace, capsys):
        """A correlation metric is undefined on constant validation labels;
        the grid stops before any fine-tune step."""
        path = workspace / "flat.jsonl"
        rows = [{"features": [float(i), float(i % 3)], "label": 1.5} for i in range(20)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(capsys, "grid", "--data", str(path),
                           "--sparsity-levels", "0.5", "--sample-levels", "4",
                           "--out", str(workspace / "g.json"))
        assert code == 2
        assert "constant labels" in json.loads(err)["message"]

    def test_binary_metric_on_multiclass_grid_is_two(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--classes", "3", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        code, _, err = run(capsys, "grid", "--data", str(w / "d.jsonl"),
                           "--sparsity-levels", "0.3", "--sample-levels", "4",
                           "--config", '{"metric": "mcc"}', "--out", str(w / "g.json"))
        assert code == 2
        assert "needs a binary head" in json.loads(err)["message"]
        assert not (w / "g.json").exists()

    @pytest.mark.parametrize("sparsity,samples,match", [
        ("0.3", "1", "at least 2 initial samples"),
        ("0.0002,0.0001", "32,16", "at least 2 parameters"),
        ("0.3,0.1", "16,0", "sample levels must be at least 1"),
        ("2,0.1", "16,4", "sparsity levels must be in (0, 1]"),
    ])
    def test_bad_ird_schedule_is_two_before_any_fine_tune(self, workspace, capsys,
                                                          monkeypatch, sparsity,
                                                          samples, match):
        def no_step(*args):
            raise AssertionError("a fine-tune ran")

        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        monkeypatch.setattr(mz.DensePass, "loss_gradient", no_step)
        code, _, err = run(capsys, "grid", "--data", str(w / "d.jsonl"), "--mode", "ird",
                           "--sparsity-levels", sparsity, "--sample-levels", samples,
                           "--out", str(w / "g.json"))
        assert code == 2
        assert match in json.loads(err)["message"]
        assert not (w / "g.json").exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--config", '{"betas": [1.0, 0.999]}', "betas"),
        ("--config", '{"betas": [0.9]}', "betas"),
        ("--config", '{"batch_size": 2.5}', "batch_size"),
        ("--config", '{"patience": 1.5}', "patience"),
        ("--config", '{"seed": -1}', "seed"),
        ("--config", '{"learning_rate": "0.1"}', "learning_rate"),
        ("--config", '{"stop_threshold": "x", "patience": 1}', "stop_threshold"),
        ("--config", '{"stop_threshold": "x", "max_epochs": 2}', "stop_threshold"),
        ("--seeds", "-1", "seeds must be at least 0 and an integer, got -1"),
        ("--seeds", "1,x", "--seeds must be comma-separated integers: '1,x'"),
        ("--config", '{"batch_size": true}', "batch_size"),
        ("--config", '{"stop_threshold": NaN}', "stop_threshold"),
        ("--config", '{"learning_rate": Infinity}', "learning_rate"),
        ("--model-config", '{"foo": 1}', "unknown --model-config keys: ['foo']"),
        ("--model-config", '{"seed": -1}', "seed must be at least 0"),
        ("--valid-fraction", "nan", "valid_fraction"),
        ("--seeds", "0,2.5", "--seeds must be comma-separated integers: '0,2.5'"),
        ("--sparsity-levels", "0.3,x", "--sparsity-levels must be comma-separated numbers"),
        ("--sample-levels", "4,x", "--sample-levels must be comma-separated integers"),
        ("--sample-levels", "16.7,4", "--sample-levels must be comma-separated integers"),
        ("--model-config", '{"kind": "logreg", "hidden": [64]}', "hidden must be empty"),
        ("--valid-fraction", "0.999", "valid_fraction 0.999"),
        ("--threads", "0", "--threads must be at least 1 and an integer, got 0"),
    ], ids=["beta-one", "one-beta", "fractional-batch", "fractional-patience",
            "negative-seed", "string-learning-rate", "string-threshold",
            "string-threshold-few-epochs", "negative-master-seed", "non-integer-master-seed",
            "bool-batch", "nan-threshold", "inf-learning-rate", "unknown-model-key",
            "negative-model-seed", "nan-valid-fraction", "fractional-master-seed",
            "string-sparsity-level", "string-sample-level", "fractional-sample-level",
            "logreg-with-hidden", "empty-train-part", "zero-threads"])
    def test_bad_train_value_is_two_before_any_step(self, workspace, capsys, monkeypatch,
                                                    flag, value, named):
        """A bad training, model or grid setting fails before any step, with
        a message that names it."""
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        for name in ("adam_step", "sgd_step"):
            monkeypatch.setattr(tr, name, no_step)
        code, _, err = run(capsys, "grid", "--data", str(w / "d.jsonl"),
                           "--sparsity-levels", "0.3", "--sample-levels", "4",
                           flag, value, "--out", str(w / "g.json"))
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"
        assert named in json.loads(err)["message"]
        assert not (w / "g.json").exists()

    def test_grid_metric_comes_from_config(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        argv = ["grid", "--data", str(w / "d.jsonl"), "--sparsity-levels", "0.3",
                "--sample-levels", "4", "--out", str(w / "g.json")]
        code, _, _ = run(capsys, *argv, "--config", '{"metric": "mcc", "max_epochs": 2}')
        assert code == 0
        manifest = json.loads((w / "g.json").read_text())["manifest"]
        assert manifest["config"]["train"]["metric"] == "mcc"
        assert "metric" not in manifest["config"]
        code, _, err = run(capsys, *argv, "--metric", "mcc")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_truncated_checkpoint_is_two(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        mz.save_checkpoint(mz.build(mz.ModelSpec("logreg", input_dim=4)), w / "m.ckpt")
        (w / "m.ckpt").write_bytes((w / "m.ckpt").read_bytes()[:40])
        code, _, err = run(capsys, "fisher", "--data", str(w / "d.jsonl"),
                           "--model", str(w / "m.ckpt"), "--out", str(w / "f.json"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert str(w / "m.ckpt") in payload["message"]
        assert not (w / "f.json").exists()

    @pytest.mark.parametrize("command,text,named", [
        ("train", "[]", "the top level must be an object"),
        ("train", '{"result": [1]}', "result must be an object"),
        ("train", '{"result": {"selected": "1", "sparsity": 0.5, "num_params": 4}}',
         "result.selected must be a list"),
        ("train", '{"result": {"selected": [1], "sparsity": 0.5, "num_params": true}}',
         "result.num_params must be an integer"),
        ("mask", '{"result": 5}', "result must be an object"),
        ("mask", '{"result": {"source": "empirical"}}', "result.values is missing"),
        ("report", "[]", "the top level must be an object"),
        ("report", '{"result": {}}', "result.spec is missing"),
        ("report", '{"result": {"spec": 5, "cells": []}}', "result.spec must be an object"),
        ("report", '{"spec": {"sparsity_levels": [0.5], "sample_levels": [4], "mode": "ird",'
                   ' "seeds": [0]}, "cells": [1]}', "cells[0] must be an object"),
        ("train", MASK % "[1.5]", "selected[0] must be an integer"),
        ("train", MASK % "[true, 3]", "selected[0] must be an integer"),
        ("train", MASK % "[1, 2.9]", "selected[1] must be an integer"),
        ("train", MASK % "[[1]]", "selected[0] must be an integer"),
        ("mask", '{"values": [1, "2"], "source": "empirical", "sample_ids": [0],'
                 ' "model_hash": null}', "values[1] must be a number"),
        ("mask", '{"values": [1], "source": "empirical", "sample_ids": [0.5],'
                 ' "model_hash": null}', "sample_ids[0] must be an integer"),
        ("checkpoint", CKPT % '"spec": [], "hash": "0"', "spec must be an object"),
        ("checkpoint", CKPT % '"spec": "logreg", "hash": "0"', "spec must be an object"),
        ("checkpoint", CKPT % '"spec": {"kind": "logreg", "input_dim": 4, "depth": 2}, '
                              '"hash": "0"', "unknown spec keys: ['depth']"),
        ("checkpoint", CKPT % '"spec": {"kind": "logreg"}, "hash": "0"',
         "spec.input_dim is missing"),
        ("checkpoint", CKPT % '"spec": {"kind": "logreg", "input_dim": 4}', "hash is missing"),
        ("report", grid(cell={"status": 5}),
         "result.cells[0].status must be one of ['ok', 'diverged', 'undefined']"),
        ("report", grid(cell={"score": "high"}), "result.cells[0].score must be a number or null"),
        ("report", grid(cell={"sparsity": 0.3}),
         "cells[0].sparsity 0.3 is not one of the spec's levels [0.5, 0.25]"),
        ("report", grid(cell={"n_samples": 6}),
         "cells[0].n_samples 6 is not one of the spec's levels [8, 4]"),
        ("report", grid(spec={"sparsity_levels": ["x", 0.25]}),
         "result.spec.sparsity_levels[0] must be a number"),
        ("report", grid(spec={"sample_levels": [8.5, 4]}),
         "result.spec.sample_levels[0] must be an integer"),
        ("report", grid(spec={"seeds": ["a"]}), "result.spec.seeds[0] must be an integer"),
        ("report", grid(spec={"mode": "fish"}), "unknown mode 'fish'"),
        ("report", grid(spec={"sparsity_levels": [0.25, 0.5]}),
         "sparsity levels must be strictly decreasing: (0.25, 0.5)"),
        ("report", grid(spec={"seeds": [-1]}), "seeds must be at least 0 and an integer, got -1"),
        ("report", grid(spec={"sample_levels": []}), "sample levels must be nonempty"),
        ("report", grid(spec={"sample_levels": [8]}), "staircase needs axes of equal length"),
        ("report", grid(cell={"seed": 7}), "cells[0].seed 7 is not one of the spec's seeds [0]"),
        ("report", grid(cell={"n_samples": 4}),
         "cells[1] repeats (sparsity, n_samples, seed) (0.5, 4, 0)"),
    ], ids=["mask-a-list", "mask-result-a-list", "mask-selected-a-string",
            "mask-num-params-a-bool", "fisher-result-a-number", "fisher-without-values",
            "grid-a-list", "grid-without-spec", "grid-spec-a-number", "grid-cell-a-number",
            "mask-selected-a-fraction", "mask-selected-a-bool", "mask-selected-a-later-fraction",
            "mask-selected-a-list", "fisher-value-a-string", "fisher-sample-id-a-fraction",
            "checkpoint-spec-a-list", "checkpoint-spec-a-string",
            "checkpoint-spec-with-unknown-key", "checkpoint-spec-without-input-dim",
            "checkpoint-without-hash", "grid-cell-status-a-number", "grid-cell-score-a-string",
            "grid-cell-off-the-sparsity-levels", "grid-cell-off-the-sample-levels",
            "grid-sparsity-level-a-string", "grid-sample-level-a-fraction", "grid-seed-a-string",
            "grid-spec-unknown-mode", "grid-spec-levels-increasing", "grid-spec-negative-seed",
            "grid-spec-no-sample-levels", "grid-spec-axes-of-unequal-length",
            "grid-cell-off-the-seeds", "grid-cell-repeated"])
    def test_malformed_result_file_is_two(self, workspace, capsys, command, text, named):
        """A mask, fisher or grid file read by ``train --mask``, ``mask
        --fisher`` or ``report``, or a checkpoint header read by ``train
        --model``, fails naming its path and the key."""
        w = workspace
        cli.main(["gen-data", "--n", "20", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        bad = w / "bad.json"
        bad.write_text(text)
        argv = {"train": ["train", "--data", str(w / "d.jsonl"), "--mask", str(bad)],
                "mask": ["mask", "--fisher", str(bad), "--sparsity", "0.5"],
                "report": ["report", "--baseline", str(bad), "--candidate", str(bad)],
                "checkpoint": ["train", "--data", str(w / "d.jsonl"), "--model", str(bad)]}[command]
        code, _, err = run(capsys, *argv, "--out", str(w / "out"))
        assert code == 2
        assert json.loads(err) == {"error": "ValueError", "message": f"{bad}: {named}"}
        assert not (w / "out").exists()

    def test_grid_cells_without_status_report(self, workspace, capsys):
        """A cell's ``status`` may be missing, as in files written before it."""
        cells = [{k: v for k, v in cell.items() if k != "status"} for cell in GRID_CELLS]
        path = workspace / "g.json"
        path.write_text(json.dumps({"result": {"spec": GRID_SPEC, "cells": cells}}))
        code, _, _ = run(capsys, "report", "--baseline", str(path), "--candidate", str(path),
                         "--out", str(workspace / "out"))
        assert code == 0
        assert (workspace / "out" / "comparison.csv").exists()

    @pytest.mark.parametrize("line", ["5", "null", '"features"', "[1, 2]"])
    def test_non_object_jsonl_row_is_two(self, workspace, capsys, line):
        data = workspace / "d.jsonl"
        data.write_text('{"features": [1.0, 2.0], "label": 0}\n' + line + "\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--out",
                           str(workspace / "out.json"))
        assert code == 2
        assert json.loads(err)["message"] == f"{data}: line 2: a row must be a JSON object"
        assert not (workspace / "out.json").exists()

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "train", "--data", "missing.jsonl",
                           "--out", "r.json")
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("argv,error", [
        (["train", "--data", "{dir}"], "IsADirectoryError"),
        (["train", "--data", "{data}", "--config", "{dir}"], "IsADirectoryError"),
        (["train", "--data", "{data}", "--model-config", "{dir}"], "IsADirectoryError"),
        (["train", "--data", "{data}", "--mask", "{dir}"], "IsADirectoryError"),
        (["report", "--baseline", "{dir}", "--candidate", "{grid}"], "IsADirectoryError"),
        (["train", "--data", "{data}", "--out", "{dir}"], "IsADirectoryError"),
        (["train", "--data", "{data}/x"], "NotADirectoryError"),
        (["report", "--baseline", "{grid}", "--candidate", "{grid}", "--out", "{grid}"],
         "FileExistsError"),
    ], ids=["data-a-directory", "config-a-directory", "model-config-a-directory",
            "mask-a-directory", "baseline-a-directory", "out-a-directory",
            "data-under-a-file", "report-out-a-file"])
    def test_bad_path_is_two_with_no_output(self, workspace, capsys, argv, error):
        """A path that names a directory, runs through a file, or names a
        file where a directory goes is a bad input, not a runtime failure."""
        w = workspace
        cli.main(["gen-data", "--n", "20", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        (w / "g.json").write_text(grid())
        (w / "sub").mkdir()
        paths = {"dir": w / "sub", "data": w / "d.jsonl", "grid": w / "g.json"}
        argv = [arg.format(**paths) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(w / "out")]
        before = {p: p.read_bytes() if p.is_file() else None for p in w.rglob("*")}
        code, _, err = run(capsys, *argv)
        assert (code, json.loads(err)["error"]) == (2, error)
        assert {p: p.read_bytes() if p.is_file() else None for p in w.rglob("*")} == before


class TestManifest:
    def test_rerun_regenerates_byte_identical_result(self, workspace, capsys):
        """Reproducibility: same config + seeds -> identical result JSON."""
        w = workspace
        cli.main(["gen-data", "--n", "100", "--dims", "5", "--noise", "0.4",
                  "--seed", "2", "--out", str(w / "d.jsonl")])
        argv = ["grid", "--data", str(w / "d.jsonl"),
                "--model-config", '{"kind": "logreg", "seed": 3}',
                "--mode", "ird", "--sparsity-levels", "0.3,0.1",
                "--sample-levels", "8,2", "--seeds", "0,1",
                "--config", '{"learning_rate": 0.1, "max_epochs": 3}']
        cli.main(argv + ["--out", str(w / "g1.json")])
        cli.main(argv + ["--out", str(w / "g2.json")])
        a = json.loads((w / "g1.json").read_text())
        b = json.loads((w / "g2.json").read_text())
        assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
        assert json.dumps(a["manifest"], sort_keys=True) == json.dumps(b["manifest"], sort_keys=True)

    def test_manifest_records_inputs_and_version(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        cli.main(["fisher", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 0}',
                  "--samples", "4", "--seed", "1", "--out", str(w / "f.json")])
        manifest = json.loads((w / "f.json").read_text())["manifest"]
        assert manifest["command"] == "fisher"
        assert manifest["master_seed"] == 1
        assert set(manifest["inputs"]) == {"data"}
        assert len(manifest["inputs"]["data"]) == 64  # sha256 hex
        from fishgrad import __version__
        assert manifest["tool_version"] == __version__

    def test_thread_env_cap_preserves_results(self, workspace, capsys):
        """--threads changes no score: one process and worker processes
        (one per core, up to 8) write the same result."""
        w = workspace
        cli.main(["gen-data", "--n", "80", "--dims", "4", "--noise", "0.4",
                  "--seed", "1", "--out", str(w / "d.jsonl")])
        argv = ["grid", "--data", str(w / "d.jsonl"),
                "--model-config", '{"kind": "logreg", "seed": 2}',
                "--mode", "fish", "--sparsity-levels", "0.3,0.1",
                "--sample-levels", "8,2", "--seeds", "0,1",
                "--config", '{"learning_rate": 0.1, "max_epochs": 2}']
        assert cli.main(argv + ["--threads", "1", "--out", str(w / "serial.json")]) == 0
        assert cli.main(argv + ["--threads", "8", "--out", str(w / "pooled.json")]) == 0
        serial = json.loads((w / "serial.json").read_text())["result"]
        pooled = json.loads((w / "pooled.json").read_text())["result"]
        assert serial == pooled

    def test_failed_write_keeps_previous_output(self, workspace, monkeypatch):
        """A write that raises midway leaves the old file whole and no
        temporary file behind."""
        w = workspace
        out = w / "result.json"
        out.write_text("previous\n")
        with pytest.raises(TypeError):
            cli._write_result(str(out), {}, {"values": [1.0, object()]}, time.time())
        assert out.read_text() == "previous\n"

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            cli._write_result(str(out), {}, {"values": [1.0]}, time.time())
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in w.iterdir()) == ["result.json"]

    def test_failed_report_keeps_previous_outputs(self, workspace, capsys, monkeypatch):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--noise", "0.3",
                  "--seed", "1", "--out", str(w / "d.jsonl")])
        cli.main(["grid", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 2}',
                  "--mode", "fish", "--sparsity-levels", "0.3",
                  "--sample-levels", "4", "--seeds", "0",
                  "--config", '{"max_epochs": 2}', "--out", str(w / "g.json")])
        argv = ["report", "--baseline", str(w / "g.json"),
                "--candidate", str(w / "g.json"), "--out", str(w / "rpt")]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in (w / "rpt").iterdir()}

        def broken_heatmap(*args, **kwargs):
            raise RuntimeError("renderer failed")

        monkeypatch.setattr(cli.rep, "render_heatmap", broken_heatmap)
        assert cli.main(argv) == 3
        assert {p.name: p.read_bytes() for p in (w / "rpt").iterdir()} == before
        # A report of other grids would write other bytes, had any file been written.
        cli.main(["grid", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 3}',
                  "--mode", "fish", "--sparsity-levels", "0.3",
                  "--sample-levels", "4", "--seeds", "1",
                  "--config", '{"max_epochs": 2}', "--out", str(w / "b.json")])
        argv[4] = str(w / "b.json")
        assert cli.main(argv) == 3
        assert {p.name: p.read_bytes() for p in (w / "rpt").iterdir()} == before

    def test_svg_references_manifest(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--noise", "0.3",
                  "--seed", "1", "--out", str(w / "d.jsonl")])
        cli.main(["grid", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "logreg", "seed": 2}',
                  "--mode", "fish", "--sparsity-levels", "0.3",
                  "--sample-levels", "4", "--seeds", "0",
                  "--config", '{"max_epochs": 2}', "--out", str(w / "g.json")])
        cli.main(["report", "--baseline", str(w / "g.json"),
                  "--candidate", str(w / "g.json"), "--out", str(w / "rpt")])
        svg = (w / "rpt" / "candidate.svg").read_text()
        assert "manifest-sha256:" in svg


class TestModelResolution:
    def test_checkpoint_round_trips_through_train(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--noise", "0.3",
                  "--seed", "1", "--out", str(w / "d.jsonl")])
        cli.main(["fisher", "--data", str(w / "d.jsonl"),
                  "--model-config", '{"kind": "mlp", "hidden": [6], "seed": 9}',
                  "--samples", "8", "--seed", "0", "--out", str(w / "f.json"),
                  "--save-model", str(w / "m.ckpt")])
        model = mz.load_checkpoint(w / "m.ckpt")
        assert model.spec.kind == "mlp"
        assert model.spec.input_dim == 4
        fisher = json.loads((w / "f.json").read_text())["result"]
        assert fisher["model_hash"] == model.content_hash()
        assert len(fisher["values"]) == model.num_params

    def test_train_saves_a_model_that_fisher_reads(self, workspace, capsys):
        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--seed", "1",
                  "--out", str(w / "d.jsonl")])
        assert cli.main(["train", "--data", str(w / "d.jsonl"),
                         "--model-config", '{"kind": "mlp", "hidden": [6], "seed": 9}',
                         "--config", '{"learning_rate": 0.1, "max_epochs": 3}',
                         "--out", str(w / "t.json"), "--save-model", str(w / "m.ckpt")]) == 0
        assert cli.main(["fisher", "--data", str(w / "d.jsonl"), "--model", str(w / "m.ckpt"),
                         "--samples", "8", "--out", str(w / "f.json")]) == 0
        trained = json.loads((w / "t.json").read_text())["result"]
        fisher = json.loads((w / "f.json").read_text())
        assert fisher["result"]["model_hash"] == trained["final_hash"]
        assert fisher["manifest"]["config"]["model_spec"]["hidden"] == [6]

    @pytest.mark.parametrize("flag,value", [
        ("--config", {"learning_rate": 0.1, "max_epochs": 2}),
        ("--model-config", {"kind": "mlp", "hidden": [5], "seed": 4}),
    ])
    def test_json_flag_reads_a_file(self, workspace, capsys, flag, value):
        """A file path gives what the same JSON inline gives; a file holding
        JSON that is not an object exits 2 with no output."""
        w = workspace
        cli.main(["gen-data", "--n", "40", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        (w / "v.json").write_text(json.dumps(value))
        (w / "list.json").write_text("[1, 2]")
        results = []
        for arg in (json.dumps(value), str(w / "v.json")):
            assert cli.main(["train", "--data", str(w / "d.jsonl"), flag, arg,
                             "--out", str(w / "t.json")]) == 0
            results.append({k: v for k, v in json.loads((w / "t.json").read_text()).items()
                            if k != "timing"})
        assert results[0] == results[1]
        code, _, err = run(capsys, "train", "--data", str(w / "d.jsonl"), flag,
                           str(w / "list.json"), "--out", str(w / "bad.json"))
        assert code == 2
        assert json.loads(err)["message"] == "config must be a JSON object, got list"
        assert not (w / "bad.json").exists()


class TestOneParserPerProcess:
    """``main`` builds its parser once and reuses it: no call's flags, defaults
    or handler reach the next, and a patched module is the one that runs."""

    def test_calls_in_one_process_stay_apart(self, workspace, capsys, monkeypatch):
        w = workspace
        data = str(w / "d.jsonl")
        assert run(capsys, "gen-data", "--n", "40", "--dims", "4", "--seed", "5",
                   "--out", data)[0] == 0
        code, _, err = run(capsys, "mask", "--random", "--nope", "--out", str(w / "x.json"))
        assert code == 1 and json.loads(err)["error"] == "usage"
        assert run(capsys, "gen-data", "--out", str(w / "d0.jsonl"))[0] == 0
        assert run(capsys, "mask", "--random", "--num-params", "10", "--sparsity", "0.5",
                   "--out", str(w / "m.json"))[0] == 0
        assert cli._parser() is cli._parser() and cli.build_parser() is not cli._parser()
        for path, seed in ((data, 5), (w / "d0.jsonl", 0)):
            with open(path, encoding="utf-8") as fh:
                assert json.loads(fh.readline())["manifest"]["master_seed"] == seed
        mask = json.loads((w / "m.json").read_text())
        assert mask["manifest"]["command"] == "mask"
        assert mask["manifest"]["master_seed"] == 0
        assert mask["result"]["selected"] == fi.random_mask(10, 0.5, 0).selected.tolist()

        loaded = []
        load = cli.dio.load
        monkeypatch.setattr(cli.dio, "load", lambda path: loaded.append(path) or load(path))
        assert cli.main(["grid", "--data", data, "--model-config", '{"kind": "logreg"}',
                         "--sparsity-levels", "0.5", "--sample-levels", "4",
                         "--config", '{"max_epochs": 1}', "--out", str(w / "g.json")]) == 0
        assert loaded == [data]

        def broken_heatmap(*args, **kwargs):
            raise RuntimeError("renderer failed")

        monkeypatch.setattr(cli.rep, "render_heatmap", broken_heatmap)
        code, _, err = run(capsys, "report", "--baseline", str(w / "g.json"),
                           "--candidate", str(w / "g.json"), "--out", str(w / "rpt"))
        assert code == 3 and json.loads(err)["message"] == "renderer failed"


def _numeric_options() -> list[tuple[str, str, type]]:
    """(subcommand, flag, int or float) for every option of ``build_parser()``
    whose type is a number, and for the grid's comma-separated lists."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    kinds = {int: int, cli._int: int, float: float, cli._float: float}
    found = [(name, action.option_strings[-1], kinds[action.type])
             for name, sub in commands.choices.items() for action in sub._actions
             if action.type in kinds]
    return found + [("grid", "--seeds", int), ("grid", "--sample-levels", int),
                    ("grid", "--sparsity-levels", float)]


def _malformed(kind) -> list[str]:
    return ["x", "nan", "inf", "-1"] + (["2.5"] if kind is int else [])


GUARDED = [(name, flag, value) for name, flag, kind in _numeric_options()
           for value in _malformed(kind)]


class TestFlagGuard:
    """Every number a flag takes is checked: text that is not a number, NaN,
    infinity, a value below the flag's bound and, for an integer, a fraction
    all exit 2 naming the flag (or its setting) with no output written. A flag
    added later without a check fails here."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """Subcommand -> argvs (without ``--out``) that succeed."""
        w = tmp_path_factory.mktemp("inputs")
        data = ["--data", str(w / "d.jsonl")]
        assert cli.main(["gen-data", "--n", "40", "--dims", "4", "--out", data[1]]) == 0
        quick = ["--config", '{"max_epochs": 1}']
        grid = [*data, *quick, "--sparsity-levels", "0.5", "--sample-levels", "4",
                "--seeds", "0", "--threads", "1"]
        assert cli.main(["grid", *grid, "--out", str(w / "g.json")]) == 0
        return {
            "gen-data": [["--n", "40", "--dims", "4", "--classes", "2", "--noise", "0.3"]],
            "fisher": [[*data, "--samples", "8"]],
            "mask": [["--random", "--num-params", "10", "--sparsity", "0.5"]],
            "train": [[*data, *quick, "--valid-fraction", "0.25"]],
            "ird": [[*data, *quick, "--samples", "8", "--sparsity", "0.5"],
                    [*data, *quick, "--samples", "8", "--mask-size", "2"]],
            "grid": [grid],
            "report": [["--baseline", str(w / "g.json"), "--candidate", str(w / "g.json")]],
        }

    def test_valid_argvs_succeed(self, valid, tmp_path, capsys):
        assert sorted(valid) == sorted({name for name, _, _ in GUARDED})
        for name, argvs in valid.items():
            for i, argv in enumerate(argvs):
                out = tmp_path / f"{name}-{i}"
                assert cli.main([name, *argv, "--out", str(out)]) == 0, (name, argv)
                assert out.exists()

    @pytest.mark.parametrize("name,flag,value", GUARDED,
                             ids=[f"{n}:{f}={v}" for n, f, v in GUARDED])
    def test_malformed_number_is_two_naming_the_flag(self, valid, tmp_path, capsys,
                                                     name, flag, value):
        argv = next((a for a in valid[name] if flag in a), valid[name][0])
        if flag in argv:
            argv = argv[:argv.index(flag) + 1] + [value] + argv[argv.index(flag) + 2:]
        else:
            argv = [*argv, flag, value]
        out = tmp_path / "out"
        code, _, err = run(capsys, name, *argv, "--out", str(out))
        assert code == 2, err
        message = json.loads(err)["message"]
        dest = flag.lstrip("-").replace("-", "_")
        names = (flag, dest, dest.replace("_", " "))
        assert any(message.startswith(f"{n} ") for n in names), message
        assert not out.exists()
