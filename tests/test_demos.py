import os
import subprocess
import sys
from pathlib import Path

import pytest

import srpfl

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_matrix_kernels.py", "02_noiseless_recovery.py", "03_order_statistics_and_schedule.py",
    "04_straggler_speedup.py",
])
def test_demo_runs(name, tmp_path):
    # the child must import the same package as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(srpfl.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
