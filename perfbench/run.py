#!/usr/bin/env python3
"""Build the benchmark from source and run one workload once.

    python3 perfbench/run.py --workload <train-cic17|serve-hot-1b|serve-cold-i8>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the library from src/ plus the harness)
into .bench_build/ at the root of the checkout on first use, then runs
the harness. The harness's standard output is passed through; its last
line is the JSON result. Build output goes to standard error. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cyberhd_perfbench")
WORKLOADS = ("train-cic17", "serve-hot-1b", "serve-cold-i8")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD, "--target", "cyberhd_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
