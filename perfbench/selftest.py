#!/usr/bin/env python3
"""Self-test of the benchmark at a minimal size (perfbench/README.md).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. every end-to-end metric (untraced run) and every per-layer metric
     (traced run) prints exactly once, with its declared unit, and
     nothing else does; end-to-end values are never 0;
  2. no traced span's self time exceeds its own duration, and no
     thread's summed self time exceeds the traced run's wall time;
  3. a deliberately corrupted output (--corrupt) is counted as failed;
  4. the simulated-output digest repeats across runs of one seed, and
     across sweep job counts.
Exits 0 when all pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS = os.path.join(ROOT, ".bench_build", "perfbench")
SECONDS = "0.5"
SEED = 7

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL", what)


def run(workload, trace="0", *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", trace, "--quick", *extra]
    # A corrupted run reports its (expected) failures on stderr.
    quiet = subprocess.DEVNULL if "--corrupt" in extra else None
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=quiet, check=True).stdout.decode()
    lines = out.strip().splitlines()
    pairs = []

    def keep(items):
        pairs.append(items)
        return dict(items)

    result = json.loads(lines[-1], object_pairs_hook=keep)
    digest = next(l for l in lines if l.startswith("digest "))
    return result, pairs, digest


def check_names(workload, trace, declared):
    result, pairs, digest = run(workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(result)))
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          "%s trace=%s: not correct" % (workload, trace))
    # The metrics object is the last object closed but one (the
    # outermost closes last); its items list every printed name.
    names = [k for k, _ in pairs[-2]]
    check(sorted(names) == sorted(declared),
          "%s trace=%s: printed and declared names differ in %s"
          % (workload, trace, sorted(set(names) ^ set(declared))))
    check(len(names) == len(set(names)),
          "%s trace=%s: a metric printed twice" % (workload, trace))
    for name, metric in result["metrics"].items():
        check(metric["unit"] == declared.get(name),
              "%s: %s has unit %s" % (workload, name, metric["unit"]))
        if trace == "0":
            check(metric["value"] != 0,
                  "%s: end-to-end %s is 0" % (workload, name))
    return digest


def check_spans(workload):
    path = os.path.join(SPANS, "spans-%s-%d.jsonl" % (workload, SEED))
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    check(spans, "%s: traced run recorded no spans" % workload)
    if not spans:
        return
    wall = max(s["end"] for s in spans) - min(s["start"] for s in spans)
    per_thread = {}
    for s in spans:
        check(-1e-9 <= s["self"] <= s["end"] - s["start"] + 1e-9,
              "%s: span %s self %.9f outside [0, duration]"
              % (workload, s["name"], s["self"]))
        per_thread[s["thread"]] = per_thread.get(s["thread"], 0) + s["self"]
    for thread, total in per_thread.items():
        check(total <= wall + 1e-6,
              "%s: thread %d self time %.6f > wall %.6f"
              % (workload, thread, total, wall))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for name in list(e2e) + list(layers):
        check(name_re.match(name), "bad metric name %s" % name)

    for w in spec["workloads"]:
        workload = w["name"]
        print("selftest:", workload, flush=True)
        digest = check_names(workload, "0", e2e)
        check_names(workload, "1", layers)
        check_spans(workload)

        corrupt, _, _ = run(workload, "0", "--corrupt")
        check(corrupt["failed"] >= 1 and not corrupt["correct"],
              "%s: corrupted output not counted as failed" % workload)

        _, _, again = run(workload)
        check(again == digest, "%s: digest %s then %s"
              % (workload, digest, again))
        if workload.endswith("_sweep"):
            _, _, serial = run(workload, "0", "--jobs", "1")
            check(serial == digest, "%s: digest differs with --jobs 1"
                  % workload)

    print("selftest: %s" % ("PASS" if not failures else
                            "FAIL (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
