"""Every script under demos/, and the Python block of README's library
quick start, runs to completion with the sources on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # -W error: a warning in the script's own process fails it too
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = run_python("-c", block)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "Countermodel(model=KripkeModel(world_count=1, edges=frozenset(), "
        "vals=(((0, 'p'), 1),)), world=0)",
        "ValidUpTo(bound=3)",
        "[2, 3]",
    ]
