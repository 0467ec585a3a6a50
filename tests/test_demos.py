"""Smoke runs of every script in ``demos/``: each must exit 0 as a plain script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
