#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the rrperf driver from source into .bench_build/perfbench (an
incremental no-op once built), then runs one workload. The driver's
last line of standard output is the result JSON; build output goes to
standard error. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rrperf")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build rrperf; False when either step fails."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                               stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt:
        cmd.append("--corrupt")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: rrperf exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
