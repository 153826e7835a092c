"""Benchmark for hilbtaut: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --workload coset_scan --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload coset_scan --seed 3 --trace 1
    python3 perfbench/run.py --smoke              # the benchmark's own test

Run from anywhere inside a checkout; the program is imported from its
``src`` directory, never from an installed copy.  Each workload runs in its
own fresh worker process (``worker.py``).  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs a fixed number of decks
twice, untraced and traced, and prints the per-layer metrics, one
``<workload> <metric> <value> <unit>`` line each; the last line is one JSON
object.  End-to-end times are scaled to reference speed (README.md).  The
exit code is 0 when every output passed its check, 1 when one failed, and 2
without a result when the checkout holds no program to measure or a worker
does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from spans import COSET_SCANS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("oracle_sweep", "cli_interactive", "coset_scan")
# Highest percentile that leaves at least ten samples beyond it at the fewest
# samples a 30 s run made at the commit that defined the benchmark: 5,616
# requests for cli_interactive and 180 for coset_scan.  oracle_sweep makes
# five to eight sweeps, too few for that; its tail is the upper quartile.
TAIL_PERCENTILE = {"oracle_sweep": 75.0, "cli_interactive": 99.8, "coset_scan": 94.0}
# Decks per traced run (and per its untraced reference).
TRACE_DECKS = {"oracle_sweep": 1, "cli_interactive": 20, "coset_scan": 2}
SETUP_SPAWNS = 15
# Seconds workloads.reference_kernel_s takes on the baseline machine when no
# neighbour slows it.  Reported times are scaled to this speed.
REFERENCE_KERNEL_S = 0.0036
WORKER_TIMEOUT_S = 170
SPANS_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
VERIFY_SUITES = (
    "coset_count_suite",
    "character_suite",
    "rectangularity_suite",
    "restriction_suite",
    "rank_oracle_suite",
    "generating_suite",
    "regular_suite",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update(
            {
                f"{layer}.calls": "count",
                f"{layer}.self_s": "s",
                f"{layer}.share": "ratio",
                f"{layer}.raised": "count",
            }
        )
    units.update(
        {
            "moduli.cosets_requested": "count",
            "moduli.cosets_per_s": "1/s",
            "moduli.scans_per_request": "ratio",
        }
    )
    units.update({f"verify.{suite}_s": "s" for suite in VERIFY_SUITES})
    units.update({"bench.self_s": "s", "trace.overhead_ratio": "ratio", "failed_ratio": "ratio"})
    return units


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_checkout() -> None:
    if not (SRC / "hilbtaut" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'hilbtaut'} is missing", file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(
    workload: str, seed: int, seconds: float, size: str = "full", spawns: int = SETUP_SPAWNS
) -> tuple[dict, dict]:
    result = run_worker(
        workload, seed, "--seconds", str(seconds), "--size", size, "--setup-probes", str(spawns)
    )
    # times at reference speed: scaled by how much longer than
    # REFERENCE_KERNEL_S the reference kernel took around them
    latencies = [
        ms * REFERENCE_KERNEL_S / kernel
        for ms, kernel in zip(result["latencies_ms"], result["kernel_s"], strict=True)
    ]
    deck_rates, start = [], 0
    for size_d in result["deck_sizes"]:
        deck_rates.append(size_d * 1000.0 / sum(latencies[start : start + size_d]))
        start += size_d
    values = {
        "setup_s": statistics.median(s * REFERENCE_KERNEL_S / k for s, k in result["setup_s"]),
        "ops_per_s": statistics.median(deck_rates) * result["ops_per_request"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(
        f"{workload} reference kernel {statistics.median(result['kernel_s']) * 1000:.3f} ms"
        f" (times are scaled to {REFERENCE_KERNEL_S * 1000:.1f} ms);"
        f" unscaled setup_s {statistics.median(s for s, _ in result['setup_s']):.6g} s,"
        f" latency_p50_ms {statistics.median(result['latencies_ms']):.6g} ms"
    )
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, _counts(result)


def _counts(*results: dict) -> dict:
    attempted = sum(r["requests"] * r["ops_per_request"] for r in results)
    failed = sum(r["failed_requests"] * r["ops_per_request"] for r in results)
    return {"attempted": attempted, "failed": failed}


def per_layer(workload: str, seed: int, size: str = "full") -> tuple[dict, dict]:
    decks = str(TRACE_DECKS[workload] if size == "full" else 1)
    plain = run_worker(workload, seed, "--decks", decks, "--size", size)
    spans_out = SPANS_DIR / f"spans-{workload}-{seed}"
    traced = run_worker(
        workload, seed, "--decks", decks, "--size", size, "--traced", "--spans-out", str(spans_out)
    )
    trace = traced["trace"]
    wall = traced["wall_s"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        stats = trace["layers"][layer]
        values[f"{layer}.calls"] = stats["calls"]
        values[f"{layer}.self_s"] = stats["self_ns"] / 1e9
        values[f"{layer}.share"] = stats["self_ns"] / 1e9 / wall
        values[f"{layer}.raised"] = stats["raised"]
    moduli_s = values["moduli.self_s"]
    scans = sum(trace["calls"].get(name, 0) for name in COSET_SCANS)
    scan_requests = traced["commands"].get("ext", 0) + traced["commands"].get("stability", 0)
    values["moduli.cosets_requested"] = trace["cosets_requested"]
    values["moduli.cosets_per_s"] = trace["cosets_requested"] / moduli_s if moduli_s else 0.0
    values["moduli.scans_per_request"] = scans / scan_requests if scan_requests else 0.0
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}_s"] = trace["inclusive_ns"].get(f"verify.{suite}", 0) / 1e9
    values["bench.self_s"] = wall - trace["top_level_ns"] / 1e9
    values["trace.overhead_ratio"] = wall / plain["wall_s"]
    counts = _counts(plain, traced)
    values["failed_ratio"] = counts["failed"] / counts["attempted"]
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}, counts


def _print_metrics(workload: str, metrics: dict, counts: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    if "failed_ratio" not in metrics:
        print(f"{workload} failed_ratio {counts['failed'] / counts['attempted']:.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check the benchmark itself")
    args = parser.parse_args(argv)

    require_checkout()
    if args.smoke:
        import smoke

        return smoke.main()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for workload in chosen:
        try:
            if args.trace:
                metrics, counts = per_layer(workload, args.seed)
            else:
                metrics, counts = end_to_end(workload, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        _print_metrics(workload, metrics, counts)
        attempted += counts["attempted"]
        failed += counts["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        combined.update(
            {f"{prefix}{name}": {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        )
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
