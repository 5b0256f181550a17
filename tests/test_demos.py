"""Every demo script runs against the package in src/ and prints its recorded output.

`demos_golden.json` holds the stdout each demo printed when it was recorded,
so any change in what a demo prints shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("betti_from_ideal", "peeling_walkthrough", "pure_diagrams", "strand_bounds")
GOLDEN = json.loads((ROOT / "tests" / "demos_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN[name]


def test_cli_output_survives_python_optimize():
    # the invariant checks are real checks, not asserts that -O strips
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ("selftest", "fixtures"):
        plain, optimized = (
            subprocess.run([sys.executable, *flags, "-m", "bettikit.cli", command], cwd=ROOT,
                           env=env, capture_output=True, text=True, timeout=120)
            for flags in ((), ("-O",)))
        assert (plain.returncode, optimized.returncode) == (0, 0), optimized.stderr
        assert optimized.stdout == plain.stdout
