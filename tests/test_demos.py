"""The demos run to completion; each checks its own results with asserts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import expfun

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    # A fresh interpreter, with the package directory first on PYTHONPATH.
    src = str(Path(expfun.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
