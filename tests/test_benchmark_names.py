"""The benchmark's traced run wraps fairint names; each must still exist."""

import inspect
import types
from pathlib import Path

from fairint.model import FairIntModel, VanillaModel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # compiled from its text rather than imported, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_instrumented_name_resolves():
    entries = _tracing_module().INSTRUMENTED
    assert entries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in entries if attr not in vars(owner)]
    assert not missing, f"perfbench/tracing.py wraps names fairint no longer defines: {missing}"


def test_forward_takes_training_right_after_features():
    # tracing's _forward_name reads kwargs["training"] or args[2] to tell a training
    # forward from an eval forward; any other layout counts every call as eval
    for cls in (FairIntModel, VanillaModel):
        assert list(inspect.signature(cls.forward).parameters)[:3] == ["self", "features", "training"], cls
