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


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# dof_slopes.py takes about 9 s, so it gets the import check only.
@pytest.mark.parametrize(
    "demo",
    ["csi_feedback_timeline.py", "delay_tradeoff.py", "round_walkthrough.py", "slot_scheduling.py"],
)
def test_demo_runs(demo):
    _run(demo)


TIMELINE = """\
slot  block  current CSI?  outdated blocks
   1      1          no    -
   2      1          yes   -
   3      1          yes   -
   4      2          no    [1]
   5      2          yes   [1]
   6      2          yes   [1]
   7      3          no    [1, 2]
   8      3          yes   [1, 2]
   9      3          yes   [1, 2]
  10      4          no    [1, 2, 3]
  11      4          yes   [1, 2, 3]
  12      4          yes   [1, 2, 3]

slot 8: current block 3, outdated [1, 2]
t_fb=0: gamma=0 (current CSI always)
t_fb=1: gamma=1/3 (mixed)
t_fb=3: gamma=1 (completely outdated)
"""


def test_csi_feedback_timeline_output_is_pinned():
    # t_c=3, t_fb=1: each block is blind for its first slot, and a block
    # becomes outdated CSI from the slot after its first one on.
    assert _run("csi_feedback_timeline.py") == TIMELINE
