"""One workload in one fresh process; prints one JSON summary line.

Run by ``run.py`` with the package on PYTHONPATH:

    python3 perfbench/worker.py --workload coset_scan --seed 1 --seconds 30

Without ``--decks`` the worker runs whole decks until ``--seconds`` have
passed; ``oracle_sweep`` then runs each sweep as a fresh ``python -m hilbtaut
verify`` process.  With ``--decks N`` it runs exactly N decks in process
(``oracle_sweep`` through ``dispatch`` too), which is what the traced run and
its untraced reference use; ``--traced`` adds the span recorder.

Without ``--decks`` the worker also times the reference kernel before the
first request, after every deck and at least every KERNEL_EVERY_S seconds
between requests, and pairs each request with the mean of the kernel times
around it.  The worker and the processes it spawns share one CPU, so the
kernel times the CPU the work runs on.  With ``--setup-probes N`` it also spawns N+1 interpreters that only
``import hilbtaut`` (the first is a warm-up), spread over the run between
decks, so that the set-up time is sampled across the whole run.

Each request is timed around the program call alone.  Only a digest of each
output is kept; the outputs are checked after the timed loop, so checks
neither count as request time nor warm the program's caches while it is
timed, and the worker's memory does not grow with the checks it owes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SWEEP_TIMEOUT_S = 120
KERNEL_EVERY_S = 0.25


def _decks(workload: str, seed: int, size: str):
    rng = random.Random(seed)
    while True:
        yield workloads.DECKS[workload](rng, size)


def _run_sweep_process(request, env):
    """One `python -m hilbtaut verify` process: (exit code, stdout, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hilbtaut", *request.argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=SWEEP_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def _probe_setup(env) -> float:
    """Seconds from spawning an interpreter until `import hilbtaut` is done."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import hilbtaut, time; print(time.monotonic())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout) - start


def _machine_speed() -> float:
    return statistics.median(workloads.reference_kernel_s() for _ in range(3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--decks", type=int, help="run exactly this many decks in process")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)

    from hilbtaut.cli import dispatch

    recorder = None
    if args.traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        from hilbtaut.cli import dispatch  # the wrapped entry point

    # one CPU for the worker and every process it spawns, so the reference
    # kernel times the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    in_process = args.decks is not None or args.workload != "oracle_sweep"
    env = dict(os.environ)
    latencies_ms: list[float] = []
    deck_walls: list[float] = []
    deck_sizes: list[int] = []
    setup_s: list[tuple[float, float]] = []  # (seconds, kernel seconds then)
    digests: list[str] = []  # one per request, in stream order
    # Without --decks, every request is paired with the reference kernel's
    # time, averaged over the measurements just before and just after it.
    calibrate = args.decks is None
    kernel_s: list[float] = []  # one per request, in stream order
    last_kernel = [_machine_speed() if calibrate else 0.0, time.perf_counter()]

    def pair_with_kernel() -> None:
        kernel = _machine_speed()
        kernel_s.extend([(last_kernel[0] + kernel) / 2] * (len(latencies_ms) - len(kernel_s)))
        last_kernel[:] = [kernel, time.perf_counter()]

    if args.setup_probes:
        _probe_setup(env)
    started = time.perf_counter()
    for deck in _decks(args.workload, args.seed, args.size):
        outputs = []
        deck_start = time.perf_counter()
        for request in deck:
            if not in_process:
                code, out, seconds = _run_sweep_process(request, env)
                latencies_ms.append(seconds * 1000.0)
                outputs.append((code, out))
                continue
            if recorder is not None:
                recorder.current_request = len(latencies_ms)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = dispatch(list(request.argv))
                t1 = time.perf_counter()
            latencies_ms.append((t1 - t0) * 1000.0)
            outputs.append((code, buf.getvalue()))
            if calibrate and time.perf_counter() - last_kernel[1] >= KERNEL_EVERY_S:
                pair_with_kernel()
        deck_walls.append(time.perf_counter() - deck_start)
        deck_sizes.append(len(deck))
        if calibrate and len(kernel_s) < len(latencies_ms):
            pair_with_kernel()
        due = args.setup_probes * (time.perf_counter() - started) / max(args.seconds, 1e-9)
        while len(setup_s) < min(due, args.setup_probes):
            setup_s.append((_probe_setup(env), last_kernel[0]))
        digests.extend(workloads.output_digest(code, out) for code, out in outputs)
        if args.decks is not None:
            if len(deck_walls) >= args.decks:
                break
        elif time.perf_counter() - started >= args.seconds:
            break

    while len(setup_s) < args.setup_probes:
        setup_s.append((_probe_setup(env), last_kernel[0]))
    peak_kb = resource.getrusage(
        resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    ).ru_maxrss
    trace = None
    if recorder is not None:
        recorder.uninstall()
        trace = recorder.report()
        if args.spans_out is not None:
            recorder.dump(args.spans_out)

    # the decks are a function of the seed, so regenerate them rather than
    # keep every request in memory while the run is measured
    requests = [
        request
        for deck in itertools.islice(_decks(args.workload, args.seed, args.size), len(deck_walls))
        for request in deck
    ]
    failed = sum(not workloads.check(r, d) for r, d in zip(requests, digests, strict=True))
    ops_per_request = (
        workloads.SWEEP_CHECKS[int(deck[0].argv[-1])] if args.workload == "oracle_sweep" else 1
    )
    kinds: dict[str, int] = {}
    for request in requests:
        kinds[request.argv[0]] = kinds.get(request.argv[0], 0) + 1
    print(
        json.dumps(
            {
                "workload": args.workload,
                "requests": len(requests),
                "failed_requests": failed,
                "ops_per_request": ops_per_request,
                "commands": kinds,
                "wall_s": sum(deck_walls),
                "deck_sizes": deck_sizes,
                "setup_s": setup_s,
                "kernel_s": kernel_s,
                "latencies_ms": latencies_ms,
                "peak_rss_mb": peak_kb / 1024.0,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
