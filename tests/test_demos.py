"""Smoke test: every script in ``demos/`` runs to completion.

Demos listed in ``EXPECTED_LINES`` must also print each of their lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED_LINES = {
    "demo_crossing_calculus.py": (
        "alternating sum over subsets of {1}:       1",
        "alternating sum over subsets of {1, 4}:    1",
        "alternating sum over subsets of {1, 2, 3}: 0",
    ),
    "demo_generator_curves.py": (
        "matches the six-crossing diagram: True",
        "invariant of the generator: 1",
    ),
    "demo_linking_engine.py": (
        "exact lk: 1",
        "reversed component: -1",
        "n = 1: lk = 1",
        "n = 2: lk = 2",
        "n = 3: lk = 3",
        "single negative kink: -1",
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED_LINES.get(demo.name, ()):
        assert line in proc.stdout.splitlines()
