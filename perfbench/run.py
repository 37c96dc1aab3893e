#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/perfbench.exe
with dune, runs the workload's prepare phase and then its measured run,
each in its own process, and ends its standard output with the run's
result object.  Traces, result files and span files go to
.perfbench_out/ under the root.  The exit code is 0 when every
correctness check passed, 1 when one failed or the run broke, and 2
when the benchmark could not be built.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("fleet-dense", "fleet-gated", "offline-segments")
OUT_DIR = ".perfbench_out"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    ceiling = os.path.dirname(os.path.abspath(os.getcwd()))
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=ceiling)
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def result_line(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and set(obj) == RESULT_KEYS


def main():
    # A SIGTERM becomes an exception inside subprocess.run, which then
    # kills and reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    # The shared dune cache lives outside the checkout: keep it out.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                               stdout=sys.stderr, stderr=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--dir", OUT_DIR]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        prepare = subprocess.run([EXE, "prepare"] + common, stdout=sys.stderr,
                                 stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if prepare.returncode != 0:
            print("perfbench: prepare phase failed", file=sys.stderr)
            return 1
        run = subprocess.run(
            [EXE, "run", "--seconds", str(args.seconds), "--commit", commit()] + common,
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if not result_line(lines[-1]):
        sys.stderr.write(run.stdout)
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
