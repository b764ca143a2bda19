#!/usr/bin/env python3
"""Build the benchmark driver against the repo's libraries and run it once.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 10 --trace 0

The driver is configured and built (incrementally) under $CARGO_TARGET_DIR,
or .bench_build when that is unset. The last line of stdout is the driver's
JSON result. With --trace 1 the run also writes its spans and prints their
per-layer self-time table (trace_summary.py) on stderr.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True

import trace_summary  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["calibrate", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(BENCH_DIR), "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        print(f"run.py: the repo's sources are missing ({src})",
              file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench_driver",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return 2

    driver = [os.path.join(build, "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", args.trace,
              "--work-dir", work]
    done = subprocess.run(driver, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        print(f"run.py: driver exited with {done.returncode}",
              file=sys.stderr)
        return done.returncode
    if args.trace == "1":
        spans = os.path.join(work,
                             f"trace-{args.workload}-{args.seed}.json")
        print(trace_summary.format_table(trace_summary.self_times(
            trace_summary.load(spans))), file=sys.stderr)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
