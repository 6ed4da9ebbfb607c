"""The determinism contract, as sha256 digests.

``matrix()`` computes every digest on tiny seeded tasks:

- the ``result`` block of one staircase grid per model, mode and optimizer;
- one more grid over two master seeds (``POOLED``), run serially and with
  ``max_workers=2``, which forks a second fine-tune process on a host with
  two cores: the two digests must be equal;
- on each model's fine-tuned snapshot, the bytes of ``empirical_fisher``,
  ``expectation_fisher`` (classifiers only) and ``sample_scores``, and the
  payload of its checkpoint (the float64 values after the header line);
- one small command-line pipeline (``cli_digests``): the dataset file that
  ``gen-data`` writes, and for each later command the ``result`` block and
  the manifest without ``inputs``, which hashes files whose ``timing`` block
  differs from run to run.

``tests/test_digests.py`` compares it with ``tests/fixtures/digests.json``.
Running this file rewrites that fixture:

    PYTHONPATH=src python tests/digest_matrix.py

Bytes depend on the BLAS kernels, so the fixture records the numpy version
and BLAS it was written on, and the test compares only on that stack. A
change that rewrites the fixture names the digests that moved and why.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from fishgrad import cli
from fishgrad import data as dio
from fishgrad import fisher as fi
from fishgrad import models as mz
from fishgrad import search
from fishgrad import training as tr

FIXTURE = Path(__file__).with_name("fixtures") / "digests.json"

# name: (model spec fields, fields of its task's SyntheticSpec), over defaults
# of 4 inputs, init seed 3, and 48 rows at noise 0.4 from data seed 7
MODELS = {
    "logreg": (dict(kind="logreg", num_classes=3),
               dict(generator="gaussian_blobs", classes=3)),
    "mlp_tanh": (dict(kind="mlp", hidden=(6,), num_classes=2), dict(generator="xor_ring")),
    "mlp_relu2": (dict(kind="mlp", hidden=(6, 5), num_classes=3, activation="relu"),
                  dict(generator="gaussian_blobs", classes=3)),
    "linear_regressor": (dict(kind="linear_regressor", num_classes=0),
                         dict(generator="linear_regression")),
    "tiny_attention": (dict(kind="tiny_attention", input_dim=12, hidden=(4,), embed_dim=4,
                            max_len=3),
                       dict(generator="token_topic", n=24, vocab=12, seq_len=3)),
}
# The key of the grid over two master seeds; its max_workers=2 run adds
# "/max_workers=2".
POOLED = "mlp_tanh/grid/ird/adam/seeds=0,1"
CONFIGS = {"adam": tr.TrainConfig("adam", 0.05, batch_size=8, max_epochs=3, patience=2),
           "sgd": tr.TrainConfig("sgd", 0.1, batch_size=8, max_epochs=3, patience=2)}


def stack() -> dict:
    """The numpy version and BLAS the bytes were computed with, named as
    ``perfbench/run.py`` names them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _grid_digest(grid, task, spec, cfg, max_workers=1) -> str:
    result = search.run_grid(grid, task, spec, search.IRDConfig(cfg, seed=5), max_workers)
    return _sha(json.dumps(result.to_json(), sort_keys=True).encode())


def _checkpoint_payload(model, tmp: Path) -> bytes:
    path = tmp / "model.ckpt"
    mz.save_checkpoint(model, path)
    return path.read_bytes().split(b"\n", 1)[1]


def cli_digests(tmp: Path) -> dict[str, str]:
    """Digests of gen-data, fisher, mask (top-k and random), train, ird, the
    three grid modes and report, run through ``cli.main`` in ``tmp``. Most
    commands leave out ``--seed``, so that its default is covered."""
    model, config = '{"kind": "mlp", "hidden": [5]}', '{"max_epochs": 3, "batch_size": 8}'
    steps = {
        "fisher": ["fisher", "--model-config", model, "--samples", "16",
                   "--save-model", tmp / "m.ckpt"],
        "mask-fisher": ["mask", "--fisher", tmp / "fisher.json", "--sparsity", "0.2"],
        "mask-random": ["mask", "--random", "--num-params", "32", "--sparsity", "0.2"],
        "train": ["train", "--model", tmp / "m.ckpt", "--mask", tmp / "mask-fisher.json",
                  "--config", config],
        "ird": ["ird", "--model-config", model, "--samples", "16", "--sparsity", "0.3",
                "--config", config, "--seed", "3"],
        **{f"grid-{mode}": ["grid", "--model-config", model, "--mode", mode,
                            "--sparsity-levels", "0.6,0.3", "--sample-levels", "16,4",
                            "--seeds", "0,1", "--config", config, *seed]
           for mode, seed in (("fish", ["--seed", "3"]), ("ird", []), ("ird-inverse", []))},
        "report": ["report", "--baseline", tmp / "grid-fish.json",
                   "--candidate", tmp / "grid-ird.json"],
    }
    data = tmp / "d.jsonl"
    assert cli.main(["gen-data", "--generator", "xor_ring", "--n", "48", "--dims", "3",
                     "--noise", "0.4", "--out", str(data)]) == 0
    out = {"cli/gen-data/file": _sha(data.read_bytes())}
    for name, argv in steps.items():
        reads = ["--data", data] if argv[0] in ("fisher", "train", "ird", "grid") else []
        path = tmp / (name if name == "report" else f"{name}.json")
        assert cli.main([str(a) for a in (*argv, *reads, "--out", path)]) == 0, name
        written = json.loads((path / "comparison.json" if name == "report" else path)
                             .read_text())
        manifest = {k: v for k, v in written["manifest"].items() if k != "inputs"}
        for part, block in (("result", written["result"]), ("manifest", manifest)):
            out[f"cli/{name}/{part}"] = _sha(json.dumps(block, sort_keys=True).encode())
    return out


def matrix() -> dict[str, str]:
    """Every digest of the contract, keyed ``model/what``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (fields, data) in MODELS.items():
            spec = mz.ModelSpec(**{"input_dim": 4, "seed": 3, **fields})
            ds = dio.generate(dio.SyntheticSpec(**{"n": 48, "dims": 4, "noise": 0.4,
                                                   "seed": 7, **data}))
            task = search.Task(*dio.train_valid_split(ds, 0.25, seed=1))
            for opt, cfg in CONFIGS.items():
                for mode in search.MODES:
                    grid = search.GridSpec((0.6, 0.3, 0.15), (16, 8, 4), mode, (0,))
                    out[f"{name}/grid/{mode}/{opt}"] = _grid_digest(grid, task, spec, cfg)
                    if POOLED.startswith(f"{name}/grid/{mode}/{opt}/"):
                        grid = replace(grid, seeds=(0, 1))
                        out[POOLED] = _grid_digest(grid, task, spec, cfg)
                        out[POOLED + "/max_workers=2"] = _grid_digest(grid, task, spec, cfg, 2)
            model = mz.build(spec)
            tr.train_masked(model, None, task.train, task.valid, CONFIGS["adam"])
            out[f"{name}/empirical_fisher"] = _sha(fi.empirical_fisher(model, task.train).values)
            if model.is_classifier:
                out[f"{name}/expectation_fisher"] = _sha(
                    fi.expectation_fisher(model, task.train).values)
            out[f"{name}/sample_scores"] = _sha(fi.sample_scores(model, task.train))
            out[f"{name}/checkpoint_payload"] = _sha(_checkpoint_payload(model, Path(tmp)))
        out.update(cli_digests(Path(tmp)))
    return out


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"stack": stack(), "digests": matrix()},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
