"""The benchmark's own smoke test still passes against this checkout.

A change to the program can break the benchmark's tracer or checkers
without any other test noticing, so its smoke run is part of the suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke passed")
