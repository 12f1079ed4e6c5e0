"""The five narrative demos run to completion against the current API, in
about a second each."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_tensors_and_flow_rules.py",
    "02_random_checkerboard.py",
    "03_heterogeneous_plasticity.py",
    "04_effective_stress_operator.py",
    "05_two_scale_solve_and_averaging.py",
])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
