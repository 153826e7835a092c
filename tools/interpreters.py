"""Run one corpus of hilbtaut commands under each given Python interpreter
and compare what they print, byte for byte.

    python tools/interpreters.py [PYTHON ...]

Each interpreter (by default the one running this script) runs every case
of the corpus in a fresh process, with PYTHONPATH pointing at this
checkout's src.  The first interpreter is the reference: every other one
must give the same stdout, stderr and exit code on each case, and every
interpreter must give each case's documented exit code within its time
budget.  argparse words its own help and usage text differently across
versions, so no help text is in the corpus and a usage error is compared
by its exit code alone.  The script prints which interpreters ran (and
which path could not be run) and exits 0 only when every check held.
Stdlib only; the program needs no pytest for this.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 4

# the README's example spec
README_SPEC = json.dumps(
    {
        "n": 3,
        "blocks": [
            {"size": 2, "rank": 2, "c1": "e1", "rep": [2]},
            {"size": 1, "rank": 1, "c1": "e2", "rep": [1]},
        ],
        "hom_table": {
            "hom": [[1, 0], [0, 1]],
            "ext1": [[2, 0], [0, 4]],
            "labels": ["A", "B"],
            "slopes": ["1/2", "1/2"],
        },
    }
)

# two one-row blocks of 10**6 points: a coset count of about 600,000
# digits, which the coset cap refuses without computing it
TWO_MILLION_POINTS = json.dumps(
    {
        "n": 2 * 10**6,
        "blocks": [
            {"size": 10**6, "rank": 1, "c1": symbol, "rep": [10**6]} for symbol in ("e1", "e2")
        ],
        "hom_table": {
            "hom": [[1, 0], [0, 1]],
            "ext1": [[0, 0], [0, 0]],
            "labels": ["A", "B"],
            "slopes": ["0", "0"],
        },
    }
)

# the collector's setting after an in-process dispatch, from either start
GC_PROBE = """
import contextlib, gc, io
from hilbtaut.cli import dispatch
for start in (True, False):
    (gc.enable if start else gc.disable)()
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(["char", "--n", "3"])
    print(f"started enabled={start}: exit {code}, enabled={gc.isenabled()}")
"""


class Case(NamedTuple):
    name: str
    args: tuple[str, ...]
    code: int
    budget: float | None = None  # seconds
    bytes_compared: bool = True  # False: the exit code alone


def _cli(*argv: str) -> tuple[str, ...]:
    return ("-m", "hilbtaut", *argv)


CORPUS = (
    Case("verify --max-n 6", _cli("verify", "--max-n", "6"), 0),
    Case("char --n 12", _cli("char", "--n", "12"), 0),
    *(
        Case(f"{command} (README spec)", _cli(command, "--spec", README_SPEC), 0)
        for command in ("chern", "rank", "ext", "conditions", "stability")
    ),
    *(
        Case(f"{command} past the coset cap", _cli(command, "--spec", TWO_MILLION_POINTS), 1, 2.0)
        for command in ("stability", "ext")
    ),
    Case("collector after dispatch", ("-c", GC_PROBE), 0),
    Case("usage: char --n x", _cli("char", "--n", "x"), 64, bytes_compared=False),
    Case("usage: unknown command", _cli("nonsense"), 64, bytes_compared=False),
)


class Outcome(NamedTuple):
    code: int | None  # None: the budget ran out
    stdout: bytes
    stderr: bytes


def run_case(python: str, case: Case) -> Outcome:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run(
            [python, *case.args], capture_output=True, timeout=case.budget, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return Outcome(None, b"", b"")
    return Outcome(proc.returncode, proc.stdout, proc.stderr)


def version(python: str) -> str | None:
    try:
        proc = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    pythons = argv or [sys.executable]
    started = time.perf_counter()
    ran: list[str] = []
    problems: list[str] = []
    reference: dict[str, Outcome] = {}
    for python in pythons:
        found = version(python)
        if found is None:
            problems.append(f"{python}: could not be run")
            print(f"missing: {python}")
            continue
        ran.append(f"{python} (Python {found})")
        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(lambda case: run_case(python, case), CORPUS))
        for case, got in zip(CORPUS, outcomes):
            if got.code is None:
                problems.append(f"{python}: {case.name}: over its {case.budget} s budget")
                continue
            if got.code != case.code:
                problems.append(f"{python}: {case.name}: exit {got.code}, expected {case.code}")
            first = reference.setdefault(case.name, got)
            if first is got:
                continue
            differs = [
                part
                for part, same in (
                    ("exit code", got.code == first.code),
                    ("stdout", got.stdout == first.stdout or not case.bytes_compared),
                    ("stderr", got.stderr == first.stderr or not case.bytes_compared),
                )
                if not same
            ]
            if differs:
                problems.append(f"{python}: {case.name}: {', '.join(differs)} differ from {ran[0]}")
    for line in ran:
        print(f"ran: {line}")
    for line in problems:
        print(f"FAIL {line}")
    seconds = time.perf_counter() - started
    print(f"{len(CORPUS)} cases on {len(ran)} of {len(pythons)} interpreters in {seconds:.2f} s: "
          + ("all agree" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
