#!/usr/bin/env python3
"""Compares two sets of blobseer_bench runs against the BENCHMARK.json bounds.

Each input file holds the standard output of one run.py invocation; its
'#' header line names the workload and its last line is the result JSON.

    python3 blobseer_bench/compare.py --base base/*.out --new new/*.out

For every (workload, metric) it prints each set's median and quartiles and
a verdict:
  better / worse  the new median moved by more than the metric's bound;
  unchanged       it moved by no more than the bound;
  unresolved      a set's spread (quartile distance over median) exceeds
                  the bound, unless every new run beats every base run.
The exit status is 1 if any verdict is worse, else 0.
"""
import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    """{workload: {metric: [values]}} over the given run outputs."""
    runs = {}
    for path in paths:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        header = next((l for l in lines if l.startswith("#")), "")
        m = re.search(r"workload=(\S+)", header)
        if not m or not lines:
            sys.exit("%s: not a run.py output" % path)
        result = json.loads(lines[-1])
        per_metric = runs.setdefault(m.group(1), {})
        for name, v in result["metrics"].items():
            per_metric.setdefault(name, []).append(v["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound, higher_is_better):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1 if higher_is_better else -1
    # Positive = the new set is worse, as a share of the base median.
    change = sign * (bmed - nmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    if spread > bound:
        every_new_better = all(sign * x > sign * y for x in new for y in base)
        return ("better" if every_new_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.new)

    worse = False
    print("%-14s %-16s %32s %32s %7s %s" % (
        "workload", "metric", "base q1/median/q3", "new q1/median/q3",
        "worse", "verdict"))
    for workload in sorted(base.keys() & new.keys()):
        for name, m in spec.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            v, change = verdict(b, n, m["bound"], m["better"] == "higher")
            worse |= v == "worse"
            print("%-14s %-16s %32s %32s %+6.1f%% %s (bound %g%%)" % (
                workload, name,
                "%.4g/%.4g/%.4g" % quartiles(b), "%.4g/%.4g/%.4g" % quartiles(n),
                100 * change, v, 100 * m["bound"]))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
