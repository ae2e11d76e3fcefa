import os
import subprocess
import sys
from pathlib import Path

import pytest

import srpfl

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [path.name for path in sorted(DEMOS.glob("*.py"))])
def test_demo_runs(name, tmp_path):
    # the child must import the same package as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(srpfl.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_is_not_vacuous():
    # a target at or above the starting distance would end both runs after
    # one round and make the printed ratio meaningless
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    for trace in (namespace["adaptive"], namespace["baseline"]):
        assert len(trace.records) > 1
        assert trace.epsilon < trace.init_dist
