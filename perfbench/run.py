#!/usr/bin/env python3
"""Build and run the serving benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload NAME --check K [--seed N] [--seconds T]

The first form builds perfbench_serving with CMake (under $CARGO_TARGET_DIR,
default .bench_build) and runs one workload; the last line of stdout is the
JSON result. The second is the steadiness self-check: K untraced runs with
seeds N .. N+K-1, then each end-to-end metric's median and interquartile
range against its bound in BENCHMARK.json, flagging any spread above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build_dir() -> str:
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build() -> str:
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the repository root (CMakeLists.txt and src/ not found)")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", "perfbench_serving"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", out])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_serving")


def run_once(binary: str, workload: str, seed: int, seconds: int, trace: int,
             capture: bool) -> subprocess.CompletedProcess[str]:
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")


def check(binary: str, workload: str, seed: int, seconds: int, runs: int) -> int:
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for i in range(runs):
        done = run_once(binary, workload, seed + i, seconds, 0, capture=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed + i}: run failed (exit {done.returncode})")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed + i}: " + ", ".join(
            f"{name} {result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
    flagged = 0
    print(f"\n{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11} {'bound':>6}")
    for name, bound in bounds.items():
        q1, q2, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        over = spread > bound
        flagged += over
        print(f"{name:<18} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:11.4f} {bound:6.2f}"
              + ("  SPREAD ABOVE BOUND" if over else ""))
    return 1 if flagged else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, metavar="K",
                        help="steadiness self-check: K runs on consecutive seeds")
    args = parser.parse_args()
    binary = build()
    if args.check:
        return check(binary, args.workload, args.seed, args.seconds, max(2, args.check))
    return run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                    capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
