"""The two benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs ops, its unit of user work. Op ``j`` runs item ``j % pool`` of a fixed
pool of inputs, so a run of any length repeats items; a repeated item must
give the same result digest. ``check`` runs outside the timed region and
returns the list of problems with an op's output.

fishgrad is driven only through its public functions, looked up as module
attributes at call time so that the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from fishgrad import cli, data, fisher, models, search, training

STAIRCASE_SPARSITY = (0.025, 0.005, 0.001, 0.0002)
STAIRCASE_SAMPLES = (128, 32, 16, 1)
# The data set is the acceptance xor fixture and stays fixed; the workload
# seed picks the model init and the master seeds. Varying the data would move
# val_score between seeds by the task's difficulty.
XOR = dict(generator="xor_ring", n=600, dims=8, noise=0.35, seed=12)
XOR_TRAIN = dict(learning_rate=0.05, max_epochs=8, batch_size=32)
SPLIT_SEED = 0


def derive(*keys: int) -> int:
    """A 31-bit seed derived from the workload seed and a purpose key."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(part.tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _best_ok(cells) -> float:
    scores = [c["score"] for c in cells if c["status"] == "ok"]
    return max(scores) if scores else 0.0


def _staircase_problems(result: dict, num_params: int) -> list[str]:
    """Cells sit on the staircase; every trace's subsets and masks are
    strictly nested at the scheduled sizes."""
    problems = []
    cells = [(c["sparsity"], c["n_samples"]) for c in result["cells"]]
    per_seed = len(search.staircase_cells(len(STAIRCASE_SPARSITY)))
    expected = [(STAIRCASE_SPARSITY[ri], STAIRCASE_SAMPLES[ci])
                for ri, ci in search.staircase_cells(len(STAIRCASE_SPARSITY))]
    if len(cells) % per_seed or sorted(cells) != sorted(expected * (len(cells) // per_seed)):
        problems.append(f"cells off the staircase: {cells}")
    mask_sizes = [fisher.mask_size(s, num_params) for s in STAIRCASE_SPARSITY]
    for trace in result["traces"]:
        subsets = [set(trace["initial_subset_ids"])]
        subsets += [set(r["subset_ids"]) for r in trace["records"]
                    if r["phase"] == search.PHASE_SAMPLES]
        masks = [set(r["mask_selected"]) for r in trace["records"]
                 if r["phase"] == search.PHASE_PARAMS]
        if [len(s) for s in subsets] != list(STAIRCASE_SAMPLES):
            problems.append(f"subset sizes {[len(s) for s in subsets]}")
        if trace["initial_mask_size"] != mask_sizes[0] or \
                [len(m) for m in masks] != mask_sizes[1:]:
            problems.append(f"mask sizes {[len(m) for m in masks]} vs {mask_sizes[1:]}")
        for name, chain in (("subset", subsets), ("mask", masks)):
            if not all(b < a for a, b in zip(chain, chain[1:])):
                problems.append(f"{name}s not strictly nested")
        for rec in trace["records"]:
            if not set(rec["subset_ids"]) <= subsets[0]:
                problems.append("record subset outside the initial draw")
    return problems


class IrdXor:
    """One run_grid in ird mode on the acceptance xor task, two master seeds
    in the grid's thread pool."""

    name = "ird_xor"
    pool = 8
    seeds_per_op = 2
    rows_per_op = 2 * 481
    cells_per_op = 2 * 7
    finetunes_per_op = 2 * 7

    def setup(self, seed: int, workdir: str) -> dict:
        ds = data.generate(data.SyntheticSpec(**XOR))
        train, valid = data.train_valid_split(ds, 0.25, seed=SPLIT_SEED)
        spec = models.ModelSpec("mlp", input_dim=8, hidden=(400,), num_classes=2,
                                seed=derive(seed, 1))
        cfg = search.IRDConfig(train=training.TrainConfig(**XOR_TRAIN))
        return {"task": search.Task(train, valid), "spec": spec, "cfg": cfg,
                "num_params": models.build(spec).num_params,
                "workers": len(os.sched_getaffinity(0)),
                "masters": [tuple(derive(seed, 4, j, k) for k in range(self.seeds_per_op))
                            for j in range(self.pool)]}

    def op(self, state: dict, item: int) -> dict:
        grid = search.GridSpec(STAIRCASE_SPARSITY, STAIRCASE_SAMPLES, "ird",
                               state["masters"][item])
        return search.run_grid(grid, state["task"], state["spec"], state["cfg"],
                               max_workers=state["workers"]).to_json()

    def check(self, state: dict, item: int, out: dict, first: bool) -> list[str]:
        problems = _staircase_problems(out, state["num_params"])
        if len(out["traces"]) != self.seeds_per_op:
            problems.append(f"{len(out['traces'])} traces, want {self.seeds_per_op}")
        return problems

    def digest(self, out: dict) -> str:
        return _sha(out)

    def quality(self, out: dict) -> float:
        """Mean over the master seeds of each seed's best ok cell."""
        scores = [_best_ok([c for c in out["cells"] if c["seed"] == s])
                  for s in {c["seed"] for c in out["cells"]}]
        return float(np.mean(scores))


class CliGridXor:
    """A round of in-process CLI calls on the acceptance xor task:
    grid --mode fish, grid --mode ird, report."""

    name = "cli_grid_xor"
    pool = 8
    rows_per_op = 226 + 481
    cells_per_op = 14
    finetunes_per_op = 14
    model_config = '{"kind": "mlp", "hidden": [400], "seed": %d}'
    train_config = json.dumps(XOR_TRAIN)

    def setup(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, "xor.jsonl")
        code = cli.main(["gen-data", "--generator", "xor_ring", "--n", "600", "--dims", "8",
                         "--noise", "0.35", "--seed", "12", "--out", path])
        if code != 0:
            raise RuntimeError(f"gen-data exited with {code}")
        return {"data": path, "workdir": workdir,
                "model_config": self.model_config % derive(seed, 1),
                "masters": [str(derive(seed, 4, j)) for j in range(self.pool)],
                "num_params": models.build(models.ModelSpec("mlp", input_dim=8, hidden=(400,),
                                                            num_classes=2)).num_params,
                "threads": str(len(os.sched_getaffinity(0)))}

    def op(self, state: dict, item: int) -> dict:
        wd = state["workdir"]
        paths = {"fish": os.path.join(wd, "fish.json"), "ird": os.path.join(wd, "ird.json"),
                 "report": os.path.join(wd, "report")}
        codes = []
        for mode in ("fish", "ird"):
            codes.append(cli.main([
                "grid", "--data", state["data"], "--model-config", state["model_config"],
                "--mode", mode, "--seeds", state["masters"][item],
                "--config", self.train_config, "--valid-fraction", "0.25",
                "--seed", str(SPLIT_SEED), "--threads", state["threads"],
                "--out", paths[mode]]))
        codes.append(cli.main(["report", "--baseline", paths["fish"],
                               "--candidate", paths["ird"], "--out", paths["report"]]))
        return {"codes": codes, "paths": paths}

    @staticmethod
    def _results(out: dict) -> dict:
        """The result blocks; raises if an output file does not parse."""
        paths = out["paths"]
        files = {"fish": paths["fish"], "ird": paths["ird"],
                 "comparison": os.path.join(paths["report"], "comparison.json")}
        results = {}
        for name, path in files.items():
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if "manifest" not in payload:
                raise ValueError(f"{name} output has no manifest")
            results[name] = payload["result"]
        return results

    def check(self, state: dict, item: int, out: dict, first: bool) -> list[str]:
        if out["codes"] != [0, 0, 0]:
            return [f"exit codes {out['codes']}"]
        try:
            results = self._results(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        out["results"] = results
        problems = _staircase_problems(results["fish"], state["num_params"])
        problems += _staircase_problems(results["ird"], state["num_params"])
        if results["fish"]["traces"] or len(results["ird"]["traces"]) != 1:
            problems.append("unexpected trace count")
        return problems

    def digest(self, out: dict) -> str:
        return _sha(out["results"])

    def quality(self, out: dict) -> float:
        return 0.5 * (_best_ok(out["results"]["fish"]["cells"])
                      + _best_ok(out["results"]["ird"]["cells"]))

    @staticmethod
    def bytes_written(out: dict) -> int:
        paths = out["paths"]
        report = [os.path.join(paths["report"], f) for f in os.listdir(paths["report"])]
        return sum(os.path.getsize(p) for p in [paths["fish"], paths["ird"], *report])


WORKLOADS = {w.name: w for w in (IrdXor, CliGridXor)}
