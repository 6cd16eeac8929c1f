"""Smoke test: every demo script runs to the end against this checkout."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    res = subprocess.run([sys.executable, path], capture_output=True, text=True, env=subprocess_env(),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
