"""Smoke test: the demos that exercise the structural checks, group norms,
matrix assembly, Zeno evolution, traversal and fermion paths run to
completion as scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    [
        "01_pinning_reductions.py",
        "02_penalty_lift.py",
        "03_zeno_evolution.py",
        "04_ground_space_traversal.py",
        "05_fermion_interpolation.py",
    ],
)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
