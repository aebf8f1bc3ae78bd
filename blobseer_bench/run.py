#!/usr/bin/env python3
"""Builds blobseer_bench from this checkout and runs one workload.

Usage, from the root of the checkout:

    python3 blobseer_bench/run.py --workload scan --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout, page-store data to its data/ subdirectory. The program's metric
lines are echoed, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end set of BENCHMARK.json, with
--trace 1 the per_layer set; a run that reports a different set, a value
that is not finite, or a wrong byte exits non-zero.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "append_shared", "point_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    for cmd in (["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", cmake_dir, "--target", "blobseer_bench",
                 "-j", str(min(os.cpu_count() or 1, 4))]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "blobseer_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    data_dir = os.path.join(build_dir, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--trace-json", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    metrics, result = {}, {}
    for line in proc.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) == 3 and fields[0] == "result":
            result[fields[1]] = int(fields[2])
        elif len(fields) == 4 and fields[0] == args.workload:
            metrics[fields[1]] = {"value": float(fields[2]),
                                  "unit": fields[3]}
    if not {"correct", "attempted", "failed"} <= result.keys():
        sys.exit("blobseer_bench exited %d without a result"
                 % proc.returncode)

    want = expected_metrics(args.trace)
    problems = []
    if metrics.keys() != want.keys():
        problems.append("metric set differs from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(want.keys() - metrics.keys()),
                                      sorted(metrics.keys() - want.keys())))
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append("%s is not finite" % name)
            m["value"] = None  # keeps the result line valid JSON
        if name in want and m["unit"] != want[name]:
            problems.append("%s unit %s, expected %s"
                            % (name, m["unit"], want[name]))
    for p in problems:
        print(p, file=sys.stderr)
    correct = (proc.returncode == 0 and result["correct"] == 1
               and result["failed"] == 0 and not problems)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
