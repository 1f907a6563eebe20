"""List the lines of ``src/fairint`` that no tier-1 test runs.

Runs the tier-1 suite in this process under ``sys.settrace``, tracing
only frames whose code lives in ``src/fairint``, and prints every line
at which compiled code starts but that never ran, grouped by module,
then a count per module. The body of an ``if __name__ == "__main__":``
block is left out, since only a script run reaches it.

    PYTHONPATH=src python tools/unrun_lines.py [extra pytest arguments]

What the trace cannot see:
- ``tests/test_acceptance.py`` is left out. It only adds training runs,
  and it trains them in worker processes.
- Code that runs in a subprocess (the demos, the acceptance pool) is
  not traced, so a line reached only there is listed as unrun.
- ``test_training_step_and_eval_leave_no_cyclic_garbage`` is
  deselected: the tracer's own frames keep objects in reference cycles,
  so that test fails under the trace while passing without it.

The exit status is pytest's when pytest fails; when it passes, 0 if
every line ran and 1 if some line never did.
"""

import ast
import dis
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairint"
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
    "--ignore", str(ROOT / "tests" / "test_acceptance.py"),
    "--deselect",
    str(ROOT / "tests" / "test_autodiff.py") + "::test_training_step_and_eval_leave_no_cyclic_garbage",
]


def statement_lines(path: Path) -> set:
    """Every line at which some compiled code object of the file starts, outside a main guard."""
    source = path.read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.difference_update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def run_traced(pytest_args) -> tuple[int, dict]:
    """Run pytest with tracing on; return its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    # fairint is first imported under the trace, so its import-time lines count as run
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv) -> int:
    code, ran = run_traced(PYTEST_ARGS + list(argv))
    counts = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        unrun = sorted(statement_lines(path) - ran[str(path)])
        counts[path.name] = len(unrun)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print()
    for name, count in counts.items():
        print(f"{count:4d}  {name}")
    print(f"{sum(counts.values()):4d}  unrun lines in total")
    return code or int(any(counts.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
