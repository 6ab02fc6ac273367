"""Smoke tests: every demo script runs to the end."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_exist():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    # pytest's filterwarnings does not reach a subprocess: numpy warnings fail the demo through -W
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", path]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
