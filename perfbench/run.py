#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: decode_batch, prefix_chat. The script
builds the C++ benchmark program (perfbench/CMakeLists.txt, which compiles ../src)
into .bench_build/perfbench, trains the zoo model into
.bench_build/models_cache when that cache is cold (untimed), then runs
the program. The program reports every metric it measured; the last
stdout line printed here keeps those BENCHMARK.json lists as end_to_end
(--trace 0) or per_layer (--trace 1). Per-run diagnostics and traced
spans are kept under .bench_build/results.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decode_batch", "prefix_chat")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")

_child = None
_signalled = None


def _forward(signum, _frame):
    """Pass SIGTERM/SIGINT on to the running child; _run then returns."""
    global _signalled
    _signalled = signum
    if _child is not None:
        _child.send_signal(signum)


def _run(cmd, on_line=None, **kw):
    """Run cmd to completion; with on_line, its stdout goes there line by line."""
    global _child
    if on_line is not None:
        kw.update(stdout=subprocess.PIPE, text=True)
    _child = subprocess.Popen(cmd, **kw)
    if on_line is not None:
        for line in _child.stdout:
            on_line(line)
    rc = _child.wait()
    _child = None
    if _signalled is not None:
        sys.exit(128 + _signalled)
    return rc


def metric_names(trace):
    """The metric names BENCHMARK.json lists for this --trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    """Configure (once) and build the benchmark program; returns the binary path."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(cache):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            if _run(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the self-test")
    ap.add_argument("--pool", type=int, default=0,
                    help="override the workload's pool width")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next "
                         "to perfbench/; run from a full checkout\n")
        return 2

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    exe = build()
    env = dict(os.environ)
    env["NORA_CACHE_DIR"] = os.path.join(BUILD_ROOT, "models_cache")
    # Cold-cache guard: training happens here, before any timed run; the
    # measuring invocation refuses to start on a cold cache.
    if _run([exe, "--prepare"], env=env, stdout=sys.stderr) != 0:
        raise SystemExit("perfbench: model cache preparation failed")
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + os.path.join(BUILD_ROOT, "results")]
    if args.smoke:
        cmd.append("--smoke")
    if args.pool > 0:
        cmd.append("--pool=%d" % args.pool)
    names = metric_names(args.trace)
    sys.stdout.flush()
    held = []  # the latest line: the result, once the program has ended

    def hold_last(line):
        if held:
            sys.stdout.write(held.pop())
        held.append(line)

    rc = _run(cmd, on_line=hold_last, env=env)
    try:
        result = json.loads(held[0])
    except (IndexError, ValueError):
        sys.stdout.write("".join(held))
        return rc or 2
    missing = sorted(names - set(result["metrics"]))
    if missing:
        sys.stderr.write("perfbench: %s did not report %s\n"
                         % (args.workload, ", ".join(missing)))
        return rc or 3
    result["metrics"] = {k: v for k, v in result["metrics"].items()
                         if k in names}
    print(json.dumps(result))
    return rc

if __name__ == "__main__":
    sys.exit(main())
