#!/usr/bin/env python3
"""A/A steadiness check: run each workload repeatedly as independent sets.

    python3 perfbench/aa.py [--workloads a,b] [--sets 2] [--runs 10]
                            [--seconds N] [--seed-base 1000]

Runs the command of BENCHMARK.json from the root of the checkout, every run
with its own seed (runs are interleaved across workloads). For each
workload, set and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median; then the bound each metric needs: the largest spread of any set
and the largest worsening of a later set's median against the first set's.
The share of failed operations must be identical in every run of a
workload. Exits non-zero when a run fails, reports incorrect outputs, or
the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """Machine-wide CPU tick counters (user, nice, system, idle, iowait,
    irq, softirq, steal, ...), or None where /proc/stat is unreadable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    after = cpu_ticks()
    steal = float("nan")
    if before and after and len(before) > 7:
        delta = [b - a for a, b in zip(before, after)]
        steal = 100.0 * delta[7] / max(1, sum(delta))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(lines[-1]), wall, steal


def worse_by(first, later, better):
    if first == 0:
        return 0.0
    shift = (later - first) / first
    return shift if better == "lower" else -shift


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # values[workload][set][metric] -> list of run values
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
              for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.seed_base + s * args.runs + r
            for w in workloads:
                try:
                    res, wall, steal = run_once(bench["command"], w, seed,
                                                args.seconds)
                except RuntimeError as e:
                    print("FAILED RUN:", e)
                    ok = False
                    continue
                ok &= bool(res["correct"])
                shares[w].add((res["failed"] / res["attempted"]))
                for m in metrics:
                    values[w][s][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                print("set %d run %2d %-14s seed %5d wall %5.1f s steal %4.1f%%  %s" % (
                    s + 1, r + 1, w, seed, wall, steal, "  ".join(
                        "%s=%.6g" % (m["name"], res["metrics"][m["name"]]["value"])
                        for m in metrics)), flush=True)

    for w in workloads:
        print("\n%s  (failed share per run: %s)" % (
            w, ", ".join("%.6g" % x for x in sorted(shares[w]))))
        if len(shares[w]) > 1:
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
            ok = False
        print("  %-18s %5s %14s %14s %14s %8s %10s %10s" % (
            "metric", "set", "median", "q1", "q3", "spread", "needs", "bound"))
        for m in metrics:
            name = m["name"]
            spreads, medians = [], []
            for s in range(args.sets):
                v = values[w][s][name]
                if len(v) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                spread = (q3 - q1) / med if med else 0.0
                spreads.append(spread)
                medians.append(med)
                print("  %-18s %5d %14.6g %14.6g %14.6g %8.4f" % (
                    name, s + 1, med, q1, q3, spread))
            if not medians:
                continue
            worst_shift = max([0.0] + [worse_by(medians[0], x, m["better"])
                                       for x in medians[1:]])
            need = max([worst_shift] + ([] if name == "setup_s" else spreads))
            print("  %-18s %5s %14s %14s %14s %8s %10.4f %10.4f%s" % (
                name, "all", "", "", "", "", need, m["bound"],
                "  OVER BOUND" if need > m["bound"] else
                ("  over a third of the bound" if need > m["bound"] / 3 else "")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
