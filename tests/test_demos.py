"""The demo outputs committed under ``demos/output/`` are what the demos write."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(tmp_path: Path, script: str, outputs: tuple[str, ...]) -> None:
    """Run a copy of a demo and compare what it writes with the committed files."""
    demos = tmp_path / "demos"
    demos.mkdir()
    shutil.copy(ROOT / "demos" / script, demos)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(demos / script)],
        check=True,
        capture_output=True,
        cwd=tmp_path,
        env=env,
    )
    for name in outputs:
        written = (demos / "output" / name).read_bytes()
        assert written == (ROOT / "demos" / "output" / name).read_bytes(), name


def test_dedicated_control_reproduces_committed_outputs(tmp_path):
    _run_demo(tmp_path, "dedicated_control.py", ("dedicated_sweep.csv", "dedicated_sweep.svg"))


@pytest.mark.parametrize(
    "script, outputs",
    [
        ("svo_staircase.py", ("svo_staircase.svg",)),
        ("calibration_workflow.py", ("synthetic_observations.csv",)),
    ],
)
def test_other_demos_reproduce_committed_outputs(tmp_path, script, outputs):
    _run_demo(tmp_path, script, outputs)
