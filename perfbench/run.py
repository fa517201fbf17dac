#!/usr/bin/env python3
"""Builds and runs the WALRUS end-to-end benchmark.

    python3 perfbench/run.py --workload wire_table1|paged_scale|live_ingest \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
library sources come straight from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The benchmark
binary prints its report; the last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}.

An untraced run (--trace 0) reports the end-to-end metrics and is kept as
the baseline for the tracing overhead. A traced run (--trace 1) reports the
per-layer metrics, writes its spans under <build>/perfbench-out/, and
prints how far its own end-to-end figures moved from the last untraced run
of the same workload and seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_table1", "paged_scale", "live_ingest")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(tree, "walrus_perfbench")


def traced_overhead(out_dir, baseline_name, stdout_lines):
    """Prints traced minus untraced end-to-end figures, when both exist."""
    path = os.path.join(out_dir, baseline_name)
    if not os.path.exists(path):
        print("tracing overhead: no untraced run of this workload and seed "
              "yet; run with --trace 0 first")
        return
    with open(path) as f:
        baseline = json.load(f)["metrics"]
    for line in stdout_lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "traced" or parts[1] not in baseline:
            continue
        traced = float(parts[2])
        untraced = baseline[parts[1]]["value"]
        share = (traced - untraced) / untraced if untraced else 0.0
        print("tracing overhead %-16s traced %.4f vs untraced %.4f %s "
              "(%+.1f%%)" % (parts[1], traced, untraced, parts[3],
                             100.0 * share))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir,
               "--digests", os.path.join(HERE, "reference_digests.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log("benchmark exited with %d and no result" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    baseline_name = "untraced-%s-seed%d.json" % (args.workload, args.seed)
    if args.trace:
        traced_overhead(out_dir, baseline_name, lines)
    else:
        with open(os.path.join(out_dir, baseline_name), "w") as f:
            json.dump(result, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
