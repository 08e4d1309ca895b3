"""Smoke tests: each study script runs to completion at its smallest size."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity_search_bench.py", "--max-n", "3", "--trials", "1"],
        pytest.param(
            ["capacity_search_bench.py", "--min-n", "9", "--max-n", "10", "--trials", "1"],
            id="capacity_search_bench.py numpy sizes",
        ),
        ["riemann_convergence.py", "--pairs", "power2-uniform", "--steps", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
