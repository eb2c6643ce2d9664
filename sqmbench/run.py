#!/usr/bin/env python3
"""Builds the SQM benchmark harness from source and runs one workload.

    python3 sqmbench/run.py --workload pca_bgw --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds the
library and the harness into $CARGO_TARGET_DIR/sqmbench (default
.bench_build/sqmbench); later calls rebuild incrementally. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1. Any failure to build, run or validate
exits non-zero without printing that line.

Under --trace 0 the measured time is split over PROCESSES harness
processes, one after another, on the same inputs, and their samples are
pooled. A run's figures otherwise move by ±15 % from one process to the next
on some workloads (memory layout differs per process), which no number of
operations inside one process averages out.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
PROCESSES = 4
# Pooled timed operations (the harness makes at least 10 per process); with
# ten or more beyond it, p75 is the highest percentile the tail metric can
# report.
MIN_OPS = 40
TAIL = 0.75


def fail(message):
    print(f"sqmbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "sqm_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "sqm_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {row["name"]: row["unit"] for row in rows}


def validate(result, spec, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json "
             f"{sorted(expected)}")
    for name, entry in metrics.items():
        if entry.get("unit") != expected[name]:
            fail(f"metric {name} has unit {entry.get('unit')}, "
                 f"BENCHMARK.json says {expected[name]}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has value {value!r}")


def run_harness(binary, args, data_dir, seconds, process=0):
    """Runs one harness process; returns its report lines and result."""
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--process", str(process),
               "--seconds", str(seconds),
               "--trace", str(args.trace), "--data-dir", str(data_dir)]
    if args.wrong_reference:
        command.append("--wrong-reference")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"harness exited with code {done.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as err:
        fail(f"unparsable result line: {err}")


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def end_to_end(results, units):
    """Pools the processes' samples into the end-to-end metrics.

    Per-operation times are averaged, not taken at the median. On a shared
    host each CPU switches between a fast and a slow phase (about 1.5x
    apart) every few seconds, so the operations of a run fall into two
    groups. The median then jumps from one group to the other as their
    shares pass one half, while the mean moves with the shares in
    proportion.
    """
    pooled = {}
    for result in results:
        for name, values in result["samples"].items():
            pooled.setdefault(name, []).extend(values)
    if len(pooled["op_s"]) < MIN_OPS:
        fail(f"only {len(pooled['op_s'])} timed operations")
    values = {
        "op_s.mean": statistics.fmean(pooled["op_s"]),
        "op_s.p75": nearest_rank(pooled["op_s"], TAIL),
        "cpu_s": statistics.fmean(pooled["cpu_s"]),
        "setup_s": statistics.median(pooled["setup_s"]),
        "session_s": statistics.fmean(pooled["session_s"]),
        "sim_net_s": statistics.median(pooled["sim_net_s"]),
        "wire_mb": statistics.median(pooled["wire_mb"]),
        "peak_rss_mb": max(pooled["peak_rss_mb"]),
    }
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="perturb the reference release; every operation "
                             "must then count as failed (self-test)")
    args = parser.parse_args()

    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "sqmbench"
    binary = build(build_dir)
    data_dir = build_dir / "data" / args.workload
    data_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        lines, result = run_harness(binary, args, data_dir, args.seconds)
        for line in lines:
            print(line)
    else:
        results = []
        for process in range(PROCESSES):
            lines, one = run_harness(binary, args, data_dir,
                                     args.seconds / PROCESSES, process)
            for line in lines:
                print(line)
            results.append(one)
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": end_to_end(results, expected),
        }
        for name, entry in result["metrics"].items():
            print(f"  {name:<22} {entry['value']:16.6f} {entry['unit']}")
    # fail_frac is printed but kept out of the JSON: "failed" and
    # "attempted" carry it, and a metric that is 0 on every healthy run has
    # no median to compare.
    print(f"  {'fail_frac':<22} "
          f"{result['failed'] / max(result['attempted'], 1):16.6f} ratio")
    validate(result, spec, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
