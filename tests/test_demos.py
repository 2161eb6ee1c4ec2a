"""The demo outputs committed under ``demos/output/`` are what the demos write."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_dedicated_control_reproduces_committed_outputs(tmp_path):
    demos = tmp_path / "demos"
    demos.mkdir()
    shutil.copy(ROOT / "demos" / "dedicated_control.py", demos)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(demos / "dedicated_control.py")],
        check=True,
        capture_output=True,
        cwd=tmp_path,
        env=env,
    )
    for name in ("dedicated_sweep.csv", "dedicated_sweep.svg"):
        written = (demos / "output" / name).read_bytes()
        assert written == (ROOT / "demos" / "output" / name).read_bytes(), name
