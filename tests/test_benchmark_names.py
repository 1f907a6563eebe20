"""The benchmark's traced run wraps fairint names; each must still exist."""

import types
from pathlib import Path

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
