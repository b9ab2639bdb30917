"""Smoke test: the demos run against the current API.

Each demo runs as a subprocess (a few seconds in total) and must exit 0
with output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_weight_improvement.py",
    "02_exact_series.py",
    "03_proof_walkthrough.py",
    "04_variational_probe.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
