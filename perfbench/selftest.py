#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds 1.5] [--workload name ...]

For every workload BENCHMARK.json lists it checks that
  * an untraced run prints every end-to-end metric BENCHMARK.json lists,
    none of them 0, and a traced run every per-layer metric;
  * every run is correct (all gates pass) and exits 0;
  * the exact metrics the benchmark reports as deterministic (nora_acc,
    sim_*, exact per-layer counts) repeat bit for bit across two runs
    and across pool widths 1 and 2.
Exits non-zero on the first workload that fails any check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seconds, trace, pool):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace), "--smoke", "--pool", str(pool)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd), p.returncode,
                                                   p.stderr[-2000:]))
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2].split(" ", 1)[1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("result keys: %s" % sorted(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("%s trace=%d pool=%d not correct: %s" % (
            workload, trace, pool, diag["gate_failures"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, diag["deterministic"]


def check_workload(workload, seconds):
    e2e = [m["name"] for m in spec()["end_to_end"]]
    layers = [m["name"] for m in spec()["per_layer"]]
    runs = {}
    for trace, want in ((0, e2e), (1, layers)):
        base, exact = run(workload, seconds, trace, 1)
        missing = [m for m in want if m not in base]
        if missing:
            raise AssertionError("%s trace=%d is missing %s" % (
                workload, trace, missing))
        zero = [m for m in e2e if trace == 0 and base[m] == 0]
        if zero:
            raise AssertionError("%s reports 0 for %s" % (workload, zero))
        again, _ = run(workload, seconds, trace, 1)
        wide, _ = run(workload, seconds, trace, 2)
        for name in [n for n in exact if n in base]:
            for label, other in (("rerun", again), ("pool 2", wide)):
                if other.get(name) != base[name]:
                    raise AssertionError("%s trace=%d exact metric %s: %r vs "
                                         "%r on %s" % (workload, trace, name,
                                                       base[name],
                                                       other.get(name), label))
        runs[trace] = len([n for n in exact if n in base])
    print("ok   %-13s end-to-end %d metrics, per-layer %d, exact %d+%d" % (
        workload, len(e2e), len(layers), runs[0], runs[1]))


def main():
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seconds", type=float, default=1.5)
    workloads = [w["name"] for w in spec()["workloads"]]
    ap.add_argument("--workload", action="append", choices=workloads)
    args = ap.parse_args()
    try:
        for w in args.workload or workloads:
            check_workload(w, args.seconds)
    except AssertionError as e:
        print("FAIL %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
