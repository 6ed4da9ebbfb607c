"""Command-line surface over the library pipeline.

Subcommands map one-to-one onto library operations: gen-data, fisher, mask,
train, ird, grid, report. Every JSON output embeds a manifest (command,
resolved config, input hashes, tool version, master seed) so a run is
reproducible from its own output; wall-clock timing lives in a separate
block that is excluded from reproducibility comparisons. Exit codes: 0 ok,
1 usage, 2 validation, 3 runtime failure, with a machine-readable JSON error
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from . import data as dio
from . import fisher as fi
from . import search as ird_mod
from . import models as mz
from . import report as rep
from . import training as tr
from ._check import integer, real
from .fileio import read_result, write_atomic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(command: str, config: dict, inputs: dict[str, str], seed) -> dict:
    return {
        "command": command,
        "config": config,
        "inputs": {name: _sha256_file(p) for name, p in inputs.items()},
        "master_seed": seed,
        "tool_version": __version__,
    }


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _result_text(manifest: dict, result: dict, started: float) -> str:
    payload = {
        "manifest": manifest,
        "timing": {"started_unix": round(started, 3),
                   "seconds": round(time.time() - started, 3)},
        "result": result,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _write_result(path: str, manifest: dict, result: dict, started: float) -> None:
    write_atomic(path, _result_text(manifest, result, started))


def _load_json_arg(value: str | None) -> dict:
    """Inline JSON or a path to a JSON file."""
    if not value:
        return {}
    text = value
    if not value.lstrip().startswith("{"):
        with open(value, encoding="utf-8") as fh:
            text = fh.read()
    parsed = json.loads(text)
    if not isinstance(parsed, dict):
        raise ValueError(f"config must be a JSON object, got {type(parsed).__name__}")
    return parsed


def _from_json(cls, flag: str, fields: dict):
    """``cls(**fields)``; a key that is not a field of ``cls`` fails, named with its flag."""
    unknown = sorted(set(fields) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {flag} keys: {unknown}")
    return cls(**fields)


def _numbers(text: str, flag: str, kind=float) -> tuple:
    """A comma-separated flag value as ``kind`` values, or an error naming the flag."""
    try:
        return tuple(kind(s) for s in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {noun}: {text!r}") from None


def _or_text(kind):
    """An argparse ``type``: ``kind(text)``, or the text itself when it does not
    parse, so that the flag's own check rejects it by name (exit 2)."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            return text
    return parse


_int, _float = _or_text(int), _or_text(float)


def _train_config(args) -> tr.TrainConfig:
    return _from_json(tr.TrainConfig, "--config", {"seed": args.seed,
                                                   **_load_json_arg(args.config)})


def _model_for_data(args, dataset: dio.Dataset) -> mz.ModelSpec:
    """The model spec of a partial ``--model-config``, with data-derived
    fields and ``--seed`` filled in."""
    cfg = {"input_dim": dataset.dim, "seed": args.seed, **_load_json_arg(args.model_config)}
    if dataset.task == "regression":
        cfg.setdefault("kind", "linear_regressor")
        cfg.setdefault("num_classes", 0)
    else:
        cfg.setdefault("kind", "mlp" if cfg.get("hidden") else "logreg")
        cfg.setdefault("num_classes", dataset.num_classes)
    return _from_json(mz.ModelSpec, "--model-config", cfg)


def _resolve_model(args, dataset: dio.Dataset) -> mz.Model:
    if args.model:
        return mz.load_checkpoint(args.model)
    return mz.build(_model_for_data(args, dataset))


def _split(dataset: dio.Dataset, args) -> tuple[dio.Dataset, dio.Dataset]:
    return dio.train_valid_split(dataset, args.valid_fraction, seed=args.seed)


# ---- subcommand implementations -------------------------------------------


def _cmd_gen_data(args, started: float) -> int:
    spec = dio.SyntheticSpec(args.generator, args.n, dims=args.dims,
                             classes=args.classes, noise=args.noise, seed=args.seed)
    dataset = dio.generate(spec)
    if dataset.token_inputs:
        raise ValueError("token datasets are in-library only; pick a dense generator")
    manifest = _manifest("gen-data", {"spec": spec.__dict__}, {}, spec.seed)
    dio.save(dataset, args.out, format=args.format, manifest=manifest)
    return 0


def _cmd_fisher(args, started: float) -> int:
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    n = args.samples if args.samples else len(dataset)
    ids = ird_mod._draw_ids(len(dataset), n, args.seed)
    estimator = fi.expectation_fisher if args.expectation else fi.empirical_fisher
    diag = estimator(model, dataset, ids)
    config = {"samples": n, "expectation": args.expectation,
              "model_spec": model.spec.to_dict()}
    manifest = _manifest("fisher", config, {"data": args.data}, args.seed)
    _write_result(args.out, manifest, fi.fisher_to_json(diag), started)
    if args.save_model:
        mz.save_checkpoint(model, args.save_model)
    return 0


def _cmd_mask(args, started: float) -> int:
    config, inputs = {"sparsity": args.sparsity, "random": args.random}, {}
    if args.random:
        mask = fi.random_mask(args.num_params, args.sparsity, args.seed)
        config["num_params"] = args.num_params
    elif args.fisher:
        fisher = fi.fisher_from_json(read_result(args.fisher, fi.FISHER_KEYS))
        mask = fi.top_k_mask(fisher, sparsity=args.sparsity)
        inputs = {"fisher": args.fisher}
    else:
        raise UsageError("need --fisher or --random")
    manifest = _manifest("mask", config, inputs, args.seed)
    _write_result(args.out, manifest, fi.mask_to_json(mask), started)
    return 0


def _cmd_train(args, started: float) -> int:
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    mask = fi.mask_from_json(read_result(args.mask, fi.MASK_KEYS)) if args.mask else None
    cfg = _train_config(args)
    train_ds, valid_ds = _split(dataset, args)
    result = tr.train_masked(model, mask, train_ds, valid_ds, cfg)
    config = {"train": asdict(cfg), "valid_fraction": args.valid_fraction,
              "model_spec": model.spec.to_dict()}
    inputs = {"data": args.data}
    if args.mask:
        inputs["mask"] = args.mask
    manifest = _manifest("train", config, inputs, cfg.seed)
    _write_result(args.out, manifest, result.to_json(), started)
    if args.save_model:
        mz.save_checkpoint(model, args.save_model)
    return 0


def _cmd_ird(args, started: float) -> int:
    if (args.sparsity is None) == (args.mask_size is None):
        raise ValueError("need --sparsity or --mask-size, not both or neither")
    if args.sparsity is None:
        integer("--mask-size", args.mask_size, 1)
    else:
        real("--sparsity", args.sparsity, "(0, 1]")
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    train_ds, valid_ds = _split(dataset, args)
    x0 = ird_mod._draw_ids(len(train_ds), args.samples, args.seed)
    cfg = ird_mod.IRDConfig(train=_train_config(args), seed=args.seed)
    trace = ird_mod.ird(model, train_ds, valid_ds, x0,
                        initial_sparsity=args.sparsity,
                        initial_k=args.mask_size, cfg=cfg, inverse=args.inverse)
    config = {"samples": args.samples, "sparsity": args.sparsity,
              "mask_size": args.mask_size, "inverse": args.inverse,
              "valid_fraction": args.valid_fraction,
              "model_spec": model.spec.to_dict()}
    manifest = _manifest("ird", config, {"data": args.data}, args.seed)
    _write_result(args.out, manifest, trace.to_json(), started)
    return 0


_MODES = {"fish": "fish_random", "ird": "ird", "ird-inverse": "ird_inverse"}
_GRID_LISTS = {"sparsity_levels": float, "sample_levels": int, "seeds": int}


def _cmd_grid(args, started: float) -> int:
    dataset = dio.load(args.data)
    train_ds, valid_ds = _split(dataset, args)
    # A grid flag left out keeps GridSpec's default.
    fields = {name: _numbers(getattr(args, name), "--" + name.replace("_", "-"), kind)
              for name, kind in _GRID_LISTS.items() if getattr(args, name) is not None}
    if args.mode:
        fields["mode"] = _MODES[args.mode]
    spec = ird_mod.GridSpec(**fields)
    model_spec = _model_for_data(args, dataset)
    cfg = ird_mod.IRDConfig(train=_train_config(args))
    result = ird_mod.run_grid(spec, ird_mod.Task(train_ds, valid_ds), model_spec, cfg,
                              max_workers=integer("--threads", args.threads, 1))
    config = {"grid": spec.to_json(), "model_spec": model_spec.to_dict(),
              "valid_fraction": args.valid_fraction, "train": asdict(cfg.train)}
    manifest = _manifest("grid", config, {"data": args.data}, args.seed)
    _write_result(args.out, manifest, result.to_json(), started)
    return 0


def _cmd_report(args, started: float) -> int:
    baseline = ird_mod.load_grid(args.baseline)
    candidate = ird_mod.load_grid(args.candidate)
    comparison = ird_mod.compare_grids(baseline, candidate)
    manifest = _manifest("report", {}, {"baseline": args.baseline,
                                        "candidate": args.candidate}, args.seed)
    ref = f"manifest-sha256: {manifest_hash(manifest)}"
    texts = {  # all built before the first write, so a failure leaves the last report
        "comparison.csv": rep.comparison_csv(baseline, candidate, comparison, annotation=ref),
        "baseline.svg": rep.render_heatmap(baseline, title="baseline", annotation=ref),
        "candidate.svg": rep.render_heatmap(candidate, comparison, title="candidate",
                                            annotation=ref),
        "comparison.json": _result_text(manifest, comparison.to_json(), started)}
    os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        write_atomic(os.path.join(args.out, name), text)
    return 0


# ---- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fishgrad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    every = _Parser(add_help=False)
    every.add_argument("--seed", type=_int, default=0, help="master seed (default 0)")
    every.add_argument("--out", required=True)
    reads = _Parser(add_help=False)
    reads.add_argument("--data", required=True)
    reads.add_argument("--model-config")
    trains = _Parser(add_help=False)
    trains.add_argument("--config")
    trains.add_argument("--valid-fraction", type=_float, default=0.2)

    def command(name, fn, summary, *parents):
        p = sub.add_parser(name, parents=[every, *parents], help=summary)
        p.set_defaults(fn=fn)
        return p

    p = command("gen-data", _cmd_gen_data, "write a synthetic dataset")
    p.add_argument("--generator", default="gaussian_blobs",
                   choices=["gaussian_blobs", "xor_ring", "linear_regression"])
    p.add_argument("--n", type=_int, default=200)
    p.add_argument("--dims", type=_int, default=8)
    p.add_argument("--classes", type=_int, default=2)
    p.add_argument("--noise", type=_float, default=0.3)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "tsv"])

    p = command("fisher", _cmd_fisher, "per-parameter squared-gradient scores", reads)
    p.add_argument("--model")
    p.add_argument("--samples", type=_int, default=0)
    p.add_argument("--expectation", action="store_true")
    p.add_argument("--save-model")

    p = command("mask", _cmd_mask, "top-k or random parameter mask")
    p.add_argument("--fisher")
    p.add_argument("--sparsity", type=_float, required=True)
    p.add_argument("--random", action="store_true")
    p.add_argument("--num-params", type=_int, default=0)

    p = command("train", _cmd_train, "masked fine-tune", reads, trains)
    p.add_argument("--model")
    p.add_argument("--mask")
    p.add_argument("--save-model")

    p = command("ird", _cmd_ird, "alternating halving search", reads, trains)
    p.add_argument("--model")
    p.add_argument("--samples", type=_int, required=True)
    p.add_argument("--sparsity", type=_float)
    p.add_argument("--mask-size", type=_int)
    p.add_argument("--inverse", action="store_true")

    p = command("grid", _cmd_grid, "staircase sweep over (sparsity, samples)", reads, trains)
    p.add_argument("--mode", choices=_MODES)
    for name in _GRID_LISTS:  # comma-separated lists
        p.add_argument("--" + name.replace("_", "-"))
    p.add_argument("--threads", type=_int, default=1,
                   help="worker processes for the fine-tunes (at most one per core)")

    p = command("report", _cmd_report, "compare two grids: CSV + SVG heatmaps")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    return parser


# main's parser, built once per process (≈ 1.5 ms); parse_args leaves it as it was.
_parser = functools.cache(build_parser)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        integer("--seed", args.seed, 0)  # every subcommand takes --seed
        return args.fn(args, time.time())
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 1
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _emit_error(type(exc).__name__, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
