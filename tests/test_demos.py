"""Every narrative script under demos/ runs to completion; the pinned
demos print the same bytes as tdlab 0.2.0."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# SHA-256 of the stdout of tdlab 0.2.0's demos: the recorded episodes, every
# certified difference and demo 03's step-size table must not move unless a
# change declares it
PINNED_STDOUT = {
    "01_exact_equivalence.py": "d3ba7f4c07a4f79cfe5a1672b93c8fdd16eaab01aae0a97286363232e2fc002c",
    "03_one_state_step_sizes.py": "e9460bad8e24a567143e0a81f9f58137524046da1ea242fce7ac7812d2f38ac3",
    "06_control_variants.py": "1885f704e652dd35c40b7426973b5be9d5fc1c75cd8cdc2003d309bbdda8f9a6",
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env, capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[name]
