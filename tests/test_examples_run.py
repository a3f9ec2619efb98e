"""Execute the fast example scripts end to end.

Compiling (test_documentation) catches syntax errors; these run the
examples as subprocesses to catch API drift (figure_gallery at a
reduced scale).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "skew_monitoring.py",
        "join_estimation.py",
        "three_way_join.py",
    ],
)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_figure_gallery_runs_small():
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "figure_gallery.py"),
            "8",
            "--scale",
            "0.02",
            "--max-log2-s",
            "6",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "poisson" in result.stdout
