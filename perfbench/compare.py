#!/usr/bin/env python3
"""Compares benchmark result sets of a parent commit and a change.

Produce the result sets with alternating order, one pair per seed:

    python3 perfbench/compare.py run --parent PARENT_CHECKOUT \
        --change CHANGE_CHECKOUT --out DIR [--pairs 10] [--workloads w1,w2]

which runs `perfbench/run.py --results-dir` inside each checkout, parent
first on even pairs and change first on odd ones, into DIR/parent and
DIR/change. Then report:

    python3 perfbench/compare.py report DIR/parent DIR/change

The report reads only the benchmark's own result files. Runs are paired by
(workload, seed). For every end-to-end metric of BENCHMARK.json, and every
workload-specific figure below, each workload gets its own row with each
side's median and quartiles, the change's wins, and a verdict:

  improved    at least 10 pairs, the change wins at least 9/10 of them (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range;
  unresolved  fewer than 10 pairs, or the parent's own spread (IQR as a
              share of its median) is wider than the bound, unless every
              change run reads better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise, or when every pair reads exactly the same (a
              figure that depends only on the seed).

Work counters are listed as `same` or `moved` (with each side's value for
the first differing seed); a count compares two versions of one program and
is reported as a count, never as a speed-up.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

# Workload-specific figures a run prints beside the gated metrics:
# name -> (better, bound). Bounds of figures that are instances of a gated
# metric follow that metric's bound in BENCHMARK.json.
DETAIL = {
    "build_tuples_per_s": ("higher", "throughput_per_s"),
    "corpus_ready_s": ("lower", "result_ms"),
    "corpus_bytes_per_fact": ("lower", 0.05),
    "train_examples_per_s": ("higher", "throughput_per_s"),
    "train_s": ("lower", "result_ms"),
    "test_ndcg10": ("higher", 0.05),
    "serve_p50_ms": ("lower", "result_ms"),
    "serve_p99_ms": ("lower", 0.25),
    "serve_goodput_rps": ("higher", "throughput_per_s"),
    "overload_answered_pct": ("higher", 0.1),
}


def load(directory):
    """{(workload, seed): report} for every untraced result in `directory`."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == 0:
            out[(r["workload"], r["seed"])] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """Applies the pair rule to aligned per-seed values."""
    n = len(parent)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if n < 10:
        return wins, "unresolved (fewer than 10 pairs)"
    if parent == change:
        return wins, "unchanged (identical on every pair)"
    if wins >= 0.9 * n and sign * (cm - pm) > (p3 - p1):
        return wins, "improved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread > bound and not all_better:
        return wins, "unresolved (parent spread %.1f%% > bound)" % (100 * spread)
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return wins, "worse"
    return wins, "unchanged"


def report(parent_dir, change_dir, bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    gated = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    parent = load(parent_dir)
    change = load(change_dir)
    keys = sorted(set(parent) & set(change))
    print("%-13s %-22s %-30s %-30s %-6s %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        rows = [(name, "metrics", better, bound)
                for name, (better, bound) in gated.items()]
        for name, (better, bound) in DETAIL.items():
            if isinstance(bound, str):
                bound = gated[bound][1]
            rows.append((name, "detail", better, bound))
        for name, section, better, bound in rows:
            if name not in parent[(workload, seeds[0])][section]:
                continue
            p = [parent[(workload, s)][section][name]["value"] for s in seeds]
            c = [change[(workload, s)][section][name]["value"] for s in seeds]
            wins, what = verdict(p, c, better, bound)
            pq, cq = quartiles(p), quartiles(c)
            print("%-13s %-22s %-30s %-30s %-6s %s" % (
                workload, name,
                "%.5g [%.5g, %.5g]" % (pq[1], pq[0], pq[2]),
                "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]),
                "%d/%d" % (wins, len(seeds)), what))
        for counter in parent[(workload, seeds[0])]["counters"]:
            moved = [s for s in seeds
                     if parent[(workload, s)]["counters"].get(counter) !=
                     change[(workload, s)]["counters"].get(counter)]
            if moved:
                s = moved[0]
                print("%-13s %-22s count moved on %d/%d seeds (seed %d: %s -> "
                      "%s)" % (workload, counter, len(moved), len(seeds), s,
                               parent[(workload, s)]["counters"][counter]
                               ["value"],
                               change[(workload, s)]["counters"]
                               .get(counter, {}).get("value")))
            else:
                print("%-13s %-22s count same on all %d seeds" %
                      (workload, counter, len(seeds)))
    return 0


def run_pairs(args):
    """Runs both sides at the change's BENCHMARK.json run_seconds."""
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    out = os.path.abspath(args.out)
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            sides.reverse()
        for workload in args.workloads.split(","):
            for side, checkout in sides:
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", "0", "--results-dir",
                       os.path.join(out, side)]
                print("pair %d %s %s" % (i, side, workload), flush=True)
                if subprocess.call(cmd, cwd=checkout,
                                   stdout=subprocess.DEVNULL) != 0:
                    print("  run failed", file=sys.stderr)
                    return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads", default="dbshap_build,train,serve")
    p = sub.add_parser("report")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    if args.command == "run":
        return run_pairs(args)
    return report(args.parent, args.change, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
