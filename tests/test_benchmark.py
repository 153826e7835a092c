"""The benchmark's own smoke test still passes against this checkout, and
every output it has recorded is reproduced.

A change to the program can break the benchmark's tracer or checkers
without any other test noticing, so its smoke run is part of the suite.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

from hilbtaut import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN = PERFBENCH / "run.py"


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke passed")


def _workloads(monkeypatch):
    # the benchmark's request catalogue, read from its file without putting
    # perfbench on the import path; registered while the test runs, as its
    # dataclass looks its module up there
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_recorded_output_is_reproduced(monkeypatch):
    # each request of the full and smoke catalogues, replayed through
    # dispatch, prints what digests.json recorded: the exit code and stdout
    # of every ext, stability, conditions, char, generating and verify
    # request the benchmark can send, byte for byte
    workloads = _workloads(monkeypatch)
    recorded = workloads.recorded_digests()
    requests = {
        request.key: request
        for size in ("full", "smoke")
        for pool in workloads.catalogue(size).values()
        for request in pool
    }
    assert set(requests) == set(recorded)
    wrong = []
    for key, request in requests.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(list(request.argv))
        if workloads.output_digest(code, out.getvalue()) != recorded[key]:
            wrong.append(request.argv[:2])
    assert not wrong, f"{len(wrong)} of {len(requests)} outputs differ: {wrong[:5]}"
