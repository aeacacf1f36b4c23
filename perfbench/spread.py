#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs workloads over several seeds
and reports each end-to-end metric's spread against its bound.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--out runs.json]

The spread of a metric is the distance between the first and third
quartiles of its values across the seeds (statistics.quantiles, n=4), as a
share of their median. Every metric but setup_s should stay within its
bound from BENCHMARK.json, and well below it (a third) to leave room for
run-to-run noise. --compare OLD.json reports, per metric, how far this
set's median moved from an earlier set's, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    old = {}
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)

    runs = {}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            rc, result = run_one(w, seed, bench["run_seconds"])
            ok = rc == 0 and result and result["correct"]
            print(f"{w} seed {seed}: {'ok' if ok else f'FAILED (exit {rc})'}",
                  flush=True)
            if not ok:
                steady = False
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        runs[w] = values
        print(f"\n{w}: metric, median, spread (IQR/median), bound")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = bounds[name]["bound"]
            flag = "" if name == "setup_s" or spread <= bound / 3 else (
                "  WITHIN BOUND" if spread <= bound else "  OVER BOUND")
            if name != "setup_s" and spread > bound:
                steady = False
            line = f"  {name:18s} {q2:14.6g} {spread:8.4f} {bound:6.3f}{flag}"
            if w in old and old[w].get(name):
                prev = statistics.median(old[w][name])
                worse = (q2 - prev) / prev if bounds[name]["better"] == "lower" \
                    else (prev - q2) / prev
                line += f"  vs old median {prev:.6g}: worse by {worse:+.4f}"
                if worse > bound:
                    steady = False
                    line += " OVER BOUND"
            print(line)
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
