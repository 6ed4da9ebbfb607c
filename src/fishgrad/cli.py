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
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import data as dio
from . import fisher as fi
from . import search as ird_mod
from . import models as mz
from . import report as rep
from . import training as tr
from .fileio import write_atomic


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


def _write_result(path: str, manifest: dict, result: dict, started: float) -> None:
    payload = {
        "manifest": manifest,
        "timing": {"started_unix": round(started, 3),
                   "seconds": round(time.time() - started, 3)},
        "result": result,
    }
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


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


def _train_config(overrides: dict, seed: int | None) -> tr.TrainConfig:
    known = {f for f in tr.TrainConfig.__dataclass_fields__}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown train config keys: {sorted(unknown)}")
    cfg = tr.TrainConfig(**overrides)
    if seed is not None and "seed" not in overrides:
        cfg = replace(cfg, seed=seed)
    return cfg


def _model_for_data(config: dict, dataset: dio.Dataset, seed: int | None) -> mz.Model:
    """Build a model from a partial spec, filling data-derived fields."""
    cfg = dict(config)
    if dataset.task == "regression":
        cfg.setdefault("kind", "linear_regressor")
        cfg.setdefault("num_classes", 0)
    else:
        cfg.setdefault("kind", "mlp" if cfg.get("hidden") else "logreg")
        cfg.setdefault("num_classes", dataset.num_classes)
    cfg.setdefault("input_dim", dataset.dim)
    if seed is not None:
        cfg.setdefault("seed", seed)
    cfg["hidden"] = tuple(cfg.get("hidden", ()))
    return mz.build(mz.ModelSpec(**cfg))


def _resolve_model(args, dataset: dio.Dataset) -> mz.Model:
    if getattr(args, "model", None):
        return mz.load_checkpoint(args.model)
    return _model_for_data(_load_json_arg(getattr(args, "model_config", None)),
                           dataset, getattr(args, "seed", None))


def _split(dataset: dio.Dataset, args) -> tuple[dio.Dataset, dio.Dataset]:
    return dio.train_valid_split(dataset, args.valid_fraction,
                                 seed=args.seed if args.seed is not None else 0)


# ---- subcommand implementations -------------------------------------------


def _cmd_gen_data(args) -> int:
    spec = dio.SyntheticSpec(args.generator, args.n, dims=args.dims,
                             classes=args.classes, noise=args.noise,
                             seed=args.seed if args.seed is not None else 0)
    dataset = dio.generate(spec)
    if dataset.token_inputs:
        raise ValueError("token datasets are in-library only; pick a dense generator")
    manifest = _manifest("gen-data", {"spec": spec.__dict__}, {}, spec.seed)
    dio.save(dataset, args.out, format=args.format, manifest=manifest)
    return 0


def _cmd_fisher(args) -> int:
    started = time.time()
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    seed = args.seed if args.seed is not None else 0
    n = args.samples if args.samples else len(dataset)
    ids = np.sort(np.random.default_rng(seed).choice(len(dataset), size=n, replace=False))
    estimator = fi.expectation_fisher if args.expectation else fi.empirical_fisher
    diag = estimator(model, dataset, ids)
    config = {"samples": n, "expectation": args.expectation,
              "model_spec": model.spec.to_dict()}
    manifest = _manifest("fisher", config, {"data": args.data}, seed)
    _write_result(args.out, manifest, fi.fisher_to_json(diag), started)
    if args.save_model:
        mz.save_checkpoint(model, args.save_model)
    return 0


def _cmd_mask(args) -> int:
    started = time.time()
    if args.random:
        if not args.num_params:
            raise ValueError("--random needs --num-params")
        seed = args.seed if args.seed is not None else 0
        mask = fi.random_mask(args.num_params, args.sparsity, seed)
        manifest = _manifest("mask", {"sparsity": args.sparsity, "random": True,
                                      "num_params": args.num_params}, {}, seed)
    else:
        if not args.fisher:
            raise UsageError("need --fisher or --random")
        diag = fi.fisher_from_json(_read_result(args.fisher))
        mask = fi.top_k_mask(diag, sparsity=args.sparsity)
        manifest = _manifest("mask", {"sparsity": args.sparsity, "random": False},
                             {"fisher": args.fisher}, args.seed)
    _write_result(args.out, manifest, fi.mask_to_json(mask), started)
    return 0


def _cmd_train(args) -> int:
    started = time.time()
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    mask = fi.mask_from_json(_read_result(args.mask)) if args.mask else None
    cfg = _train_config(_load_json_arg(args.config), args.seed)
    train_ds, valid_ds = _split(dataset, args)
    result = tr.train_masked(model, mask, train_ds, valid_ds, cfg)
    config = {"train": cfg.__dict__ | {"betas": list(cfg.betas)},
              "valid_fraction": args.valid_fraction,
              "model_spec": model.spec.to_dict()}
    inputs = {"data": args.data}
    if args.mask:
        inputs["mask"] = args.mask
    manifest = _manifest("train", config, inputs, cfg.seed)
    _write_result(args.out, manifest, result.to_json(), started)
    if args.save_model:
        mz.save_checkpoint(model, args.save_model)
    return 0


def _cmd_ird(args) -> int:
    started = time.time()
    dataset = dio.load(args.data)
    model = _resolve_model(args, dataset)
    seed = args.seed if args.seed is not None else 0
    train_ds, valid_ds = _split(dataset, args)
    x0 = np.sort(np.random.default_rng(seed).choice(len(train_ds), size=args.samples,
                                                    replace=False))
    cfg = ird_mod.IRDConfig(train=_train_config(_load_json_arg(args.config), seed),
                            seed=seed)
    trace = ird_mod.ird(model, train_ds, valid_ds, x0,
                        initial_sparsity=args.sparsity,
                        initial_k=args.mask_size, cfg=cfg, inverse=args.inverse)
    config = {"samples": args.samples, "sparsity": args.sparsity,
              "mask_size": args.mask_size, "inverse": args.inverse,
              "valid_fraction": args.valid_fraction,
              "model_spec": model.spec.to_dict()}
    manifest = _manifest("ird", config, {"data": args.data}, seed)
    _write_result(args.out, manifest, trace.to_json(), started)
    return 0


_MODE_ALIASES = {"fish": "fish_random", "fish_random": "fish_random",
                 "ird": "ird", "ird-inverse": "ird_inverse",
                 "ird_inverse": "ird_inverse"}


def _cmd_grid(args) -> int:
    started = time.time()
    dataset = dio.load(args.data)
    train_ds, valid_ds = _split(dataset, args)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    spec = ird_mod.GridSpec(
        tuple(float(s) for s in args.sparsity_levels.split(",")),
        tuple(int(s) for s in args.sample_levels.split(",")),
        _MODE_ALIASES[args.mode], seeds)
    model_cfg = _load_json_arg(args.model_config)
    probe = _model_for_data(model_cfg, dataset, args.seed)
    cfg = ird_mod.IRDConfig(train=_train_config(_load_json_arg(args.config), args.seed))
    result = ird_mod.run_grid(spec, ird_mod.Task(train_ds, valid_ds), probe.spec, cfg,
                              max_workers=args.threads)
    config = {"grid": spec.to_json(), "model_spec": probe.spec.to_dict(),
              "valid_fraction": args.valid_fraction,
              "train": cfg.train.__dict__ | {"betas": list(cfg.train.betas)}}
    manifest = _manifest("grid", config, {"data": args.data}, args.seed)
    _write_result(args.out, manifest, result.to_json(), started)
    return 0


def _read_result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    return d.get("result", d)


def _cmd_report(args) -> int:
    started = time.time()
    baseline = ird_mod.load_grid(args.baseline)
    candidate = ird_mod.load_grid(args.candidate)
    comparison = ird_mod.compare_grids(baseline, candidate)
    manifest = _manifest("report", {}, {"baseline": args.baseline,
                                        "candidate": args.candidate}, args.seed)
    ref = f"manifest-sha256: {manifest_hash(manifest)}"
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "comparison.csv"),
                 rep.comparison_csv(baseline, candidate, comparison, annotation=ref))
    write_atomic(os.path.join(args.out, "baseline.svg"),
                 rep.render_heatmap(baseline, title="baseline", annotation=ref))
    write_atomic(os.path.join(args.out, "candidate.svg"),
                 rep.render_heatmap(candidate, comparison, title="candidate",
                                    annotation=ref))
    _write_result(os.path.join(args.out, "comparison.json"), manifest,
                  comparison.to_json(), started)
    return 0


# ---- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fishgrad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--generator", "--task", dest="generator", default="gaussian_blobs",
                   choices=["gaussian_blobs", "xor_ring", "linear_regression"])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "tsv"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("fisher", help="per-parameter squared-gradient scores")
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--model-config")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--expectation", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--save-model")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fisher)

    p = sub.add_parser("mask", help="top-k or random parameter mask")
    p.add_argument("--fisher")
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--random", action="store_true")
    p.add_argument("--num-params", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mask)

    p = sub.add_parser("train", help="masked fine-tune")
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--model-config")
    p.add_argument("--mask")
    p.add_argument("--config")
    p.add_argument("--valid-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--save-model")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("ird", help="alternating halving search")
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--model-config")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sparsity", type=float)
    p.add_argument("--mask-size", type=int)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--config")
    p.add_argument("--valid-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ird)

    p = sub.add_parser("grid", help="staircase sweep over (sparsity, samples)")
    p.add_argument("--data", required=True)
    p.add_argument("--model-config")
    p.add_argument("--mode", default="fish", choices=sorted(_MODE_ALIASES))
    p.add_argument("--sparsity-levels", default="0.025,0.005,0.001,0.0002")
    p.add_argument("--sample-levels", default="128,32,16,1")
    p.add_argument("--seeds", default="0")
    p.add_argument("--config")
    p.add_argument("--valid-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the fine-tunes (at most one per core)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("report", help="compare two grids: CSV + SVG heatmaps")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_report)
    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.fn(args)
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
