"""CLI pipeline: subcommand wiring, exit codes, manifest reproducibility."""

import json
import time

import pytest

from fishgrad import cli
from fishgrad import models as mz
from fishgrad import training as tr


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

    @pytest.mark.parametrize("config", [
        '{"betas": [1.0, 0.999]}',
        '{"betas": [0.9]}',
        '{"batch_size": 2.5}',
        '{"patience": 1.5}',
        '{"seed": -1}',
        '{"learning_rate": "0.1"}',
        '{"stop_threshold": "x", "patience": 1}',
        '{"stop_threshold": "x", "max_epochs": 2}',
    ], ids=["beta-one", "one-beta", "fractional-batch", "fractional-patience",
            "negative-seed", "string-learning-rate", "string-threshold",
            "string-threshold-few-epochs"])
    def test_bad_train_value_is_two_before_any_step(self, workspace, capsys, monkeypatch,
                                                    config):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        w = workspace
        cli.main(["gen-data", "--n", "60", "--dims", "4", "--seed", "0",
                  "--out", str(w / "d.jsonl")])
        for name in ("adam_step", "sgd_step"):
            monkeypatch.setattr(tr, name, no_step)
        code, _, err = run(capsys, "grid", "--data", str(w / "d.jsonl"),
                           "--sparsity-levels", "0.3", "--sample-levels", "4",
                           "--config", config, "--out", str(w / "g.json"))
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"
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

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "train", "--data", "missing.jsonl",
                           "--out", "r.json")
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"


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
