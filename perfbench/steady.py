#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/steady.py [--workloads w1,w2] [--seeds 10] \
        [--first-seed 1] [--out DIR]

For each workload, runs the benchmark once per seed (untraced, at
BENCHMARK.json's run_seconds) and reports, per end-to-end metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread at or
above a third of the metric's bound is flagged, setup_s included.

It then runs the first seed a second time and checks that the deterministic
work counters repeat exactly. Exits non-zero if any run failed, a spread is
flagged, a counter did not repeat, or the metric lists in BENCHMARK.json do
not match what the benchmark binary reports.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK = "BENCHMARK.json"


def run_once(workload, seed, seconds, trace, out_dir):
    """Runs one benchmark run and returns its report dict (or None)."""
    args = run.bench_args(workload, seed, seconds, trace, run.THREADS,
                          out_dir)
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    path = args[args.index("--report") + 1]
    if proc.returncode != 0 or not os.path.isfile(path):
        print("  run %s seed %d failed (exit %d): %s" %
              (workload, seed, proc.returncode, last[:300]))
        return None
    with open(path) as f:
        return json.load(f)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def check_metric_lists(bench):
    listed = json.loads(subprocess.run([run.BINARY, "--list-metrics"],
                                       stdout=subprocess.PIPE,
                                       text=True).stdout)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in listed[key]]
        have = [(m["name"], m["unit"]) for m in bench[key]]
        if want != have:
            print("BENCHMARK.json %s does not match the benchmark binary's list" % key)
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(run.BUILD_ROOT,
                                                      "steady"))
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    if not run.build():
        return 1
    ok = check_metric_lists(bench)
    seconds = bench["run_seconds"]
    for workload in workloads:
        print("== %s: %d seeds" % (workload, args.seeds))
        reports = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(workload, seed, seconds, 0,
                         os.path.join(args.out, "seeds"))
            if r is None:
                ok = False
                continue
            reports.append(r)
            print("  seed %d: %s" % (seed, "  ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())))
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in reports]
            if len(values) < 2:
                continue
            s, median = spread(values)
            limit = metric["bound"] / 3
            flagged = s >= limit
            ok = ok and not flagged
            print("  %-18s median %-12.6g spread %6.2f%%  (bound %.0f%%, "
                  "a third %.1f%%)%s" %
                  (metric["name"], median, 100 * s, 100 * metric["bound"],
                   100 * limit, "  TOO WIDE" if flagged else ""))
        if not reports:
            continue
        again = run_once(workload, args.first_seed, seconds, 0,
                         os.path.join(args.out, "repeat"))
        first = reports[0]
        if again is None or again["counters"] != first["counters"]:
            ok = False
            print("  counters did NOT repeat for seed %d" % args.first_seed)
        else:
            print("  counters repeat exactly for seed %d (%d counters)" %
                  (args.first_seed, len(first["counters"])))
    print("steady: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
