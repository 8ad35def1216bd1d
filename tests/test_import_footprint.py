"""Importing the package's entry points must not load scipy or numpy.

A report, the CLI and the service need normal-distribution math in one
place (Wilson intervals, the two-proportion z-test), which the standard
library covers; numpy loads only when a bootstrap interval is asked for.
Each module is imported in a fresh interpreter, so nothing the test
runner already imported can hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "numpy")

_CHILD = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(",".join(name for name in sys.argv[2:] if name in sys.modules))
"""


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.api",
        "repro.experiments.report",
        "repro.service.http",
    ],
)
def test_entry_point_does_not_import_heavy_numerics(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, module, *HEAVY],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "", f"{module} imported {proc.stdout.strip()}"
