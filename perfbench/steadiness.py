#!/usr/bin/env python3
"""Run every workload repeatedly and print each end-to-end metric's spread
next to its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads calibrate,serve]
                                    [--json out.json]

Run from the root of a checkout. Each run uses the next seed. A metric's
spread is the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median; a metric
is steady when the spread stays within its bound, setup_s included. The
failed share (failed / attempted) must be identical in every run of a
workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(config, workload, seed):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]),
                               "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        config = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in config["workloads"]])
    summary = {}
    steady = True
    for workload in workloads:
        results, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(config, workload, args.first_seed + i)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {args.first_seed + i}: {wall:.1f} s, "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, wall median "
              f"{statistics.median(walls):.1f} s, failed share "
              f"{sorted(shares)}, all correct: {correct}")
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}")
        rows = {}
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            s, med = spread(values)
            held = s <= metric["bound"]
            steady = steady and held
            rows[name] = {"median": med, "spread": s,
                          "bound": metric["bound"], "values": values}
            print(f"  {name:<18} {med:>14.6g} {s:>8.4f} {metric['bound']:>6}"
                  f"{'' if held else '  OVER BOUND'}")
        steady = steady and correct and len(shares) == 1
        summary[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                             "correct": correct, "walls_s": walls}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
