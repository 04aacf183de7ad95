#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from any directory inside a checkout of the repository. The simulator and
the mgap_perf program are built from source into .bench_build/ at the
repository root. Each workload runs in its own process: a workload that
crashes or hangs is recorded as that workload's failure, and the others'
results survive. For one workload the last stdout line is its result,
{"correct", "attempted", "failed", "metrics"}; `--workload all` prints one
{"workload", "result"} line per workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
# The workloads BENCHMARK.json lists; tree15_overload runs only by name (see
# README.md for why it is not listed).
WORKLOADS = ["rgg10k_idle", "backend_mix_campaign"]
UNLISTED = ["tree15_overload"]
# A run measures --seconds plus fixed set-up, reference and micro-benchmark
# work; anything slower than this is a hang.
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(text):
    print(text, file=sys.stderr, flush=True)


def build(target="mgap_perf", tests=False):
    """Configures (once) and builds `target`; returns its path or None."""
    if not (ROOT / "src").is_dir() or not (ROOT / "cmake").is_dir():
        log(f"perfbench: no simulator sources under {ROOT}")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    if tests or not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release",
                         f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: {' '.join(cmd)} failed")
            return None
    return BUILD / target


def failed_result():
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_one(command, timeout=CHILD_TIMEOUT_S):
    """Runs one workload process; returns its parsed result line.

    A crash, a hang, a non-zero exit or a missing result line count as one
    failed attempt of that workload.
    """
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(map(str, command))} timed out after {timeout} s")
        return failed_result()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {' '.join(map(str, command))} exited with {proc.returncode}")
        return failed_result()
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"perfbench: malformed result line: {lines[-1][:200]}")
        return failed_result()
    return result


def run_workloads(command_for, names):
    """Runs each workload in its own process; returns {name: result}."""
    return {name: run_one(command_for(name)) for name in names}


def selftest():
    binary = build("perfbench_tests", tests=True)
    if binary is None:
        return 1
    rc = subprocess.run([str(binary)]).returncode
    if build() is None:
        return 1
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            str(ROOT / "perfbench" / "tests"), "-p", "test_*.py"])
    return rc or tests.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNLISTED + ["all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS + UNLISTED if args.workload == "all" else [args.workload]

    def command_for(name):
        seed = [] if args.seed is None else ["--seed", str(args.seed)]
        return [str(binary), "--workload", name, *seed, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(OUT)]

    results = run_workloads(command_for, names)
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps({"workload": name, "result": result}), flush=True)
    else:
        print(json.dumps(results[args.workload]), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
