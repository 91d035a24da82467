"""Smoke tests of the scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_lyapunov_scale_prints_one_json_line():
    out = subprocess.run(
        [sys.executable, str(TOOLS / "lyapunov_scale.py"), "--repeats", "1",
         "4"], capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"n", "solve_s", "peak_mib", "relative_residual"}
    assert row["n"] == 4
    assert row["relative_residual"] <= 1e-10
