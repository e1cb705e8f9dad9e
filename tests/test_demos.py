"""Every demo script runs to completion against the current package API,
and every name that API exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pillardet

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from pillardet import *", namespace)
    assert set(pillardet.__all__) <= namespace.keys()
