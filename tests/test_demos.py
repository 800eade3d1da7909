"""The demo scripts run to completion against this package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_relation_algebra.py",
        "02_generate_consistent_networks.py",
        "03_train_and_classify.py",
        "04_label_noise_robustness.py",
    ],
)
def test_demo_exits_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
