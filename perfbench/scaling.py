#!/usr/bin/env python3
"""Thread-scaling report for the pipeline benchmark (report only, never
gated).

Run from the root of a checkout:

    python3 perfbench/scaling.py [--seed N] [--seconds S] [--threads 1,2,4]

Reruns dbshap_build and train with the library's thread pool at each thread
count and prints each workload's throughput figures per thread count, with
the speed-up over the first count. The serve workload is left out: its
thread count is part of its definition (one generator, one collector, two
service workers).
"""

import argparse
import json
import os
import subprocess
import sys

import run

FIGURES = {
    "dbshap_build": ("build_tuples_per_s", "corpus_ready_s"),
    "train": ("train_examples_per_s", "train_s"),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--threads", default="1,2,4")
    args = parser.parse_args()
    if not run.build():
        return 1
    counts = [int(t) for t in args.threads.split(",")]
    for workload, figures in FIGURES.items():
        base = None
        print("== %s (seed %d)" % (workload, args.seed))
        for threads in counts:
            out = os.path.join(run.BUILD_ROOT, "scaling", "t%d" % threads)
            cmd = run.bench_args(workload, args.seed, args.seconds, 0,
                                 threads, out)
            if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
                print("  %d threads: run failed" % threads)
                return 1
            with open(cmd[cmd.index("--report") + 1]) as f:
                detail = json.load(f)["detail"]
            throughput = detail[figures[0]]["value"]
            base = base or throughput
            print("  %d threads: %s %.1f %s, %s %.3f s, speed-up %.2fx" % (
                threads, figures[0], throughput, detail[figures[0]]["unit"],
                figures[1], detail[figures[1]]["value"], throughput / base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
