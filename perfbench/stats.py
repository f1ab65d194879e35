#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise, or compare two
summaries (perfbench/README.md, "Comparing two commits").

    python3 perfbench/stats.py run --workload NAME [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/stats.py compare BASE.json NEW.json

`run` prints, per metric, the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json, and can save the raw values. `compare` reports, per
workload and end-to-end metric, the change of the median and whether
it is within the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             check=True).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: INCORRECT (%d of %d failed)"
                  % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-32s %14s %14s %14s %8s %6s"
          % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s%s"
              % (name, med, q1, q3, spread,
                 "" if bound is None else bound, flag))
    if args.out:
        saved = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                saved = json.load(f)
        saved[args.workload] = values
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)


def compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    worse_ok = True
    for workload in base:
        if workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            change = (n - b) / b if b else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            worse_ok = worse_ok and verdict == "ok"
            print("%-12s %-14s %14.6g -> %14.6g %+8.2f%%  %s"
                  % (workload, name, b, n, 100 * change, verdict))
    return 0 if worse_ok else 1


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", choices=["0", "1"], default="0")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
