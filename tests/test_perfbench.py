"""The benchmark's hold on fishgrad: every function its tracer wraps exists,
installing the tracer leaves nothing behind, and each workload runs an op.

``perfbench/tracing.py`` looks up each name it lists with ``getattr``, so a
deleted or renamed function would break ``perfbench/run.py --trace 1``
without failing any other test. These tests only read perfbench.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import fishgrad
from fishgrad import models as mz

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def load_module(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    """perfbench's tracer, with every module it lists imported, as the
    benchmark's workloads import them."""
    module = load_module(TRACING)
    for name in module.FUNCTIONS:
        importlib.import_module(f"fishgrad.{name}")
    return module


def model_classes():
    return [c for c in vars(mz).values() if inspect.isclass(c) and issubclass(c, mz.Model)]


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [f"{module}.{name}" for module, names in tracing.FUNCTIONS.items()
               for name in names
               if not inspect.isfunction(getattr(getattr(fishgrad, module), name, None))]
    missing += [f"models.{method}" for method in tracing.METHODS
                if not any(method in vars(c) for c in model_classes())]
    assert missing == []


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    owners = [fishgrad, *(getattr(fishgrad, name) for name in tracing.FUNCTIONS),
              *model_classes()]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer().installed(fishgrad) as tracer:
        assert fishgrad.training.train_masked is not before[0]["train_masked"]
        assert fishgrad.train_masked is fishgrad.training.train_masked
        fishgrad.training.early_stop_check([1.0, 0.5], 1, 0.0)
    assert tracer.calls["training.early_stop_check"] == 1
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items()), owner


def test_every_workload_passes_its_check(tmp_path):
    """One traced op of each workload, with one worker so nothing forks,
    passes the workload's own check and scores its nominal rows, the count
    ``perfbench/run.py --trace 1`` checks. An argument the benchmark passes
    that fishgrad no longer takes, or a scorer argument the tracer binds by
    name, fails here, not only in a benchmark run. No op clones a model:
    a grid's fine-tunes read each seed's planned model."""
    tracing = load_tracing()
    for name, workload_class in load_module(WORKLOADS).WORKLOADS.items():
        workload = workload_class()
        workdir = tmp_path / name
        workdir.mkdir()
        state = workload.setup(0, str(workdir))
        state.update(workers=1, threads="1")
        with tracing.Tracer().installed(fishgrad) as tracer:
            out = workload.op(state, 0)
        assert workload.check(state, 0, out, True) == [], name
        assert tracer.counts["fisher.rows_scored"] == workload.rows_per_op, name
        assert tracer.calls["models.clone"] == 0, name
