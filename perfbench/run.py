#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]

Run from the repository root. Builds the benchmark package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then runs the
timed binary (`--trace 0`, end-to-end metrics) or the traced one
(`--trace 1`, per-layer metrics). The last line of standard output is the
result object. Exits non-zero, without a result, when the build fails,
the run fails or times out, or the output has no result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["read_warm", "read_cold", "churn", "sharded_read"]
RUN_TIMEOUT_S = 170
SCRATCH = [".perfbench_tmp"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    binary = "perfbench_trace" if args.trace else "perfbench"
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
            "--bin", binary,
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        run = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        for path in SCRATCH:
            shutil.rmtree(os.path.join(ROOT, path), ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    result = None
    if run.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
