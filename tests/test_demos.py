"""The demo scripts run to completion against this package."""

from __future__ import annotations

import os
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


def test_cli_walkthrough_exits_cleanly(tmp_path):
    # the walkthrough calls `ibgn` and `python3`; shims on PATH run both through this interpreter
    for name, command in (("ibgn", f'"{sys.executable}" -m ibgn'), ("python3", f'"{sys.executable}"')):
        shim = tmp_path / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)
    env = child_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    proc = subprocess.run(
        ["bash", str(DEMOS / "05_cli_walkthrough.sh")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
