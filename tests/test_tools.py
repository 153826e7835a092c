"""The committed scripts under tools/ run, on the interpreter under test."""

from __future__ import annotations

import platform
import subprocess
import sys
import time
from pathlib import Path

INTERPRETERS = Path(__file__).resolve().parents[1] / "tools" / "interpreters.py"


def test_interpreters_script_runs_its_corpus_on_this_interpreter():
    # the whole corpus, reference and budgets included, on one interpreter;
    # the report names the interpreter that ran, so a run that ran nothing
    # cannot pass for one that agreed
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(INTERPRETERS)], capture_output=True, text=True, timeout=30
    )
    seconds = time.perf_counter() - started
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[0] == f"ran: {sys.executable} (Python {platform.python_version()})"
    assert lines[1].startswith("12 cases on 1 of 1 interpreters in ")
    assert lines[1].endswith(": all agree")
    assert seconds < 2.0
