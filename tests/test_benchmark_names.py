"""The benchmark's traced run wraps fairint names and its workloads set training options; each must still exist."""

import inspect
import math
import types
from pathlib import Path

from fairint.data import split, synth_generate
from fairint.model import FairIntModel, ModelConfig, VanillaModel
from fairint.training import TrainConfig, train

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


def test_traced_training_records_each_step_part_once_per_step():
    # the per-layer split reads these spans; a step that bypassed forward, embed_features
    # or the module-level names the trace wraps would drop out of it unnoticed
    tracing = _perfbench_module("tracing")
    dataset = split(synth_generate(n=300, bias_strength=2.0, proxy_corr=0.8, seed=1), (0.6, 0.2, 0.2), seed=1)
    with tracing.Tracer("test") as tracer, tracer.span("training.train"):
        train(dataset, ModelConfig(), TrainConfig(batch_size=64, max_epochs=1, lambda_ifc=1.0, lambda_fc=1.0))
    spans = tracer.spans  # [name, start, end, parent index]
    steps = math.ceil(int((dataset.split_tags == 0).sum()) / 64)
    parts = ("model.forward", "losses.joint", "autodiff.backward", "training.adam")
    assert [name for name, _, _, parent in spans if parent == 0 and name in parts] == list(parts) * steps
    forwards = [i for i, (name, _, _, parent) in enumerate(spans) if name == "model.forward" and parent == 0]
    assert [parent for name, _, _, parent in spans if name == "model.embed" and parent in forwards] == forwards
