"""Smoke test: every demo script runs to completion from a source checkout."""

import pathlib
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=src_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem in ("02_classical_pipeline", "03_exceptional_crapo"):
        checks = [line for line in proc.stdout.splitlines() if line.endswith(("True", "False"))]
        assert len(checks) == 3 and all(line.endswith(": True") for line in checks), checks
