"""The benchmark's traced run wraps fairint names and its workloads set training options; each must still exist."""

import inspect
import types
from pathlib import Path

from fairint.model import FairIntModel, VanillaModel
from fairint.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    # compiled from its text rather than imported, so no bytecode cache is written beside it
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_instrumented_name_resolves():
    entries = _perfbench_module("tracing").INSTRUMENTED
    assert entries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in entries if attr not in vars(owner)]
    assert not missing, f"perfbench/tracing.py wraps names fairint no longer defines: {missing}"


def test_forward_takes_training_right_after_features():
    # tracing's _forward_name reads kwargs["training"] or args[2] to tell a training
    # forward from an eval forward; any other layout counts every call as eval
    for cls in (FairIntModel, VanillaModel):
        assert list(inspect.signature(cls.forward).parameters)[:3] == ["self", "features", "training"], cls


def test_every_workload_training_config_round_trips():
    # a TrainConfig field the benchmark sets cannot be deleted without this failing
    workloads = _perfbench_module("workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        config = workloads.train_config(workload, 1, 0)
        assert TrainConfig.from_dict(config.to_dict()) == config, workload.name
