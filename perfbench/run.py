#!/usr/bin/env python3
"""Pipeline benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {dbshap_build,train,serve} \
        --seed N --seconds S --trace {0,1} [--threads N] [--results-dir DIR]

Builds the library from the checkout's src/ tree together with the
benchmark binary (perfbench/CMakeLists.txt) into .bench_build/, runs one
workload and passes its output through. The last line of standard
output is the run's JSON result. The exit code is non-zero when the build
fails or an output check fails.

--results-dir DIR additionally writes the run's full report (gated metrics,
workload-specific figures, work counters, failed checks) to
DIR/<workload>-seed<N>-trace<T>.json, the input of compare.py and steady.py.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "lshap_perfbench")
WORKLOADS = ("dbshap_build", "train", "serve")
# The benchmark's thread pools use at most this many threads.
THREADS = min(4, os.cpu_count() or 1)


def build(jobs=THREADS):
    """Configures and builds the benchmark binary; returns True on success."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/ beside perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("perfbench: build failed (see %s)" % log_path,
                      file=sys.stderr)
                return False
    return True


def bench_args(workload, seed, seconds, trace, threads, results_dir):
    """The benchmark binary's command line for one run."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    scratch = os.path.join(BUILD_ROOT, "scratch", tag)
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--threads", str(threads), "--scratch-dir", scratch]
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, tag + ".json")]
    if results_dir:
        os.makedirs(results_dir, exist_ok=True)
        args += ["--report", os.path.join(results_dir, tag + ".json")]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=THREADS)
    parser.add_argument("--results-dir")
    args = parser.parse_args()
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.call(bench_args(args.workload, args.seed, args.seconds,
                                      args.trace, args.threads,
                                      args.results_dir))


if __name__ == "__main__":
    sys.exit(main())
