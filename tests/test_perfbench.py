"""The benchmark tracer's hold on fishgrad: every function it wraps exists,
and installing it leaves nothing behind.

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


def load_tracing():
    """perfbench's tracer, with every module it lists imported, as the
    benchmark's workloads import them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
