"""The benchmark's own test, at tiny sizes; it takes a few seconds.

    python3 perfbench/run.py --smoke

It checks that the generators are deterministic in the seed, that every
checker accepts the program's real output and rejects a wrong one, and that
each workload runs end to end and traced through real worker processes with
every metric BENCHMARK.json names.  In the traced runs the layer self times
plus ``bench.self_s`` must add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys

import run
import workloads

SEED = 7


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _corrupt(stdout: str) -> str:
    """Bump the last digit of the output, or append a byte if it has none."""
    digits = list(re.finditer(r"\d", stdout))
    if not digits:
        return stdout + "x"
    at = digits[-1].start()
    return stdout[:at] + str((int(stdout[at]) + 1) % 10) + stdout[at + 1 :]


def check_generators() -> None:
    for name, deck in workloads.DECKS.items():
        first = [r.argv for r in deck(random.Random(SEED), "smoke")]
        expect(first == [r.argv for r in deck(random.Random(SEED), "smoke")], f"{name}: same seed, other inputs")
        if name != "oracle_sweep":
            other = [r.argv for r in deck(random.Random(SEED + 1), "smoke")]
            expect(first != other, f"{name}: another seed gave the same inputs")


def check_checkers() -> int:
    """Run one smoke deck of every workload in process; each real output
    must pass and each wrong one must fail.  Returns the outputs checked."""
    sys.path.insert(0, str(run.SRC))
    from hilbtaut.cli import dispatch

    checked = 0
    for name, deck in workloads.DECKS.items():
        for request in deck(random.Random(SEED), "smoke"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(list(request.argv))
            out = buf.getvalue()
            digest = workloads.output_digest
            expect(workloads.check(request, digest(code, out)), f"{name}: real output rejected for {request.argv[:2]}")
            wrong = [digest(code, _corrupt(out)), digest(code ^ 1, out)]
            failed = sum(not workloads.check(request, d) for d in wrong)
            expect(failed == len(wrong), f"{name}: wrong output accepted for {request.argv[:2]}")
            checked += 1
    return checked


def check_pipeline() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    expect({w["name"] for w in declared["workloads"]} == set(run.WORKLOADS), "workloads differ from BENCHMARK.json")
    for workload in run.WORKLOADS:
        metrics, counts = run.end_to_end(workload, SEED, 0, size="smoke", spawns=1)
        expect(counts["failed"] == 0 and counts["attempted"] > 0, f"{workload}: {counts}")
        expect(set(metrics) == end_to_end, f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        expect(all(value > 0 for value, _ in metrics.values()), f"{workload}: a zero end-to-end metric")

        metrics, counts = run.per_layer(workload, SEED, size="smoke")
        expect(counts["failed"] == 0, f"{workload} traced: {counts}")
        expect(set(metrics) == layers, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        value = {name: v for name, (v, _) in metrics.items()}
        wall = value["cli.self_s"] / value["cli.share"]
        covered = sum(value[f"{layer}.self_s"] for layer in run.LAYERS) + value["bench.self_s"]
        expect(abs(covered - wall) <= 1e-6 * wall, f"{workload}: self times sum to {covered}, wall {wall}")
        expect(value["trace.overhead_ratio"] > 0, f"{workload}: no overhead ratio")
        if workload == "oracle_sweep":
            expect(value["moduli.calls"] == 0, "oracle_sweep called moduli")
            expect(value["verify.rank_oracle_suite_s"] > 0, "oracle_sweep: no suite time")
        else:
            expect(value["moduli.scans_per_request"] > 0, f"{workload}: no coset scans")
        print(f"smoke {workload}: ok ({counts['attempted']} operations traced)")


def main() -> int:
    try:
        check_generators()
        checked = check_checkers()
        print(f"smoke checkers: ok ({checked} outputs, each also rejected when wrong)")
        check_pipeline()
    except SmokeFailure as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke passed")
    return 0
