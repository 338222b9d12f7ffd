"""Smoke tests for the narrative scripts in demos/."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stia

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(stia.__file__).resolve().parent.parent


def _stia_imports(path):
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "stia":
            names += [alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(demo):
    names = _stia_imports(DEMOS / demo)
    assert names
    assert [n for n in names if not hasattr(stia, n)] == []


# dof_slopes.py takes about 9 s, so it gets the import check only.
@pytest.mark.parametrize(
    "demo",
    ["csi_feedback_timeline.py", "delay_tradeoff.py", "round_walkthrough.py", "slot_scheduling.py"],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
