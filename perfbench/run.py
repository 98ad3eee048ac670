#!/usr/bin/env python3
"""Builds and runs the HERE whole-run benchmark (see perfbench/README.md).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The Rust harness in this directory is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
run once per workload, each in its own process so that peak memory never
carries over from one workload to the next. The last line of standard
output is one JSON object: the harness's own result for a single
workload, or the combined result when every workload runs. The exit code
is non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lbm-sweep", "ycsb-fanout", "sockperf-fine"]
# A workload process measures for --seconds, then finishes the run in
# flight and its set-up repetitions; a traced round (one whole run and two
# replays) takes under 10 s on the slowest workload. Past twice --seconds
# plus this margin, the process is taken to hang.
CHILD_MARGIN_S = 60


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_one(binary, target, args, workload, echo):
    timeout = 2 * args.seconds + CHILD_MARGIN_S
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target, "perfbench-trace")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {timeout} s", file=sys.stderr)
        return None, 1
    lines = done.stdout.splitlines()
    for line in lines if echo else lines[:-1]:
        print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")

    if args.workload != "all":
        result, code = run_one(binary, target, args, args.workload, echo=True)
        return code if result is not None else (code or 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        result, code = run_one(binary, target, args, workload, echo=False)
        if result is None or code != 0:
            status = 1
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
