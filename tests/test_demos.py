"""Smoke test: every demo script runs to the end against this checkout."""

import glob
import os
import subprocess
import sys

import pytest

import fluxgrad as fg

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    # the directory holding the imported package, so the demo runs this copy
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(fg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    res = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
