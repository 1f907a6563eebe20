"""The quick narrative demos run start to finish."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairint

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_basics.py", "02_bias_probe.py", "06_cli_walkthrough.py"])
def test_demo_exits_0(name, tmp_path):
    # the package from this checkout, and TMPDIR for demo 06's working directory
    src = str(Path(fairint.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
