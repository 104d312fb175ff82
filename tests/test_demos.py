"""Each demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uhspath

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    # the package the tests import, wherever it lies
    src = os.path.dirname(os.path.dirname(uhspath.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "density_tour.py":
        assert "selected/windows  6/16" in proc.stdout
