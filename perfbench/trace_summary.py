#!/usr/bin/env python3
"""Reduce a traced run's spans to a per-layer self-time table.

    python3 perfbench/trace_summary.py .bench_build/perfbench/work/trace-calibrate-1.json

A span's self time is its duration minus the time its child spans cover.
The table lists, per span name (one name per layer boundary), the count,
total time, self time and share of all self time, largest first.
"""
import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return json.load(f)["spans"]


def self_times(spans):
    """{name: [count, total_ms, self_ms]} over every span in the trace."""
    child_ms = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_ms[s["parent"]] += s["dur_us"] / 1000.0
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        dur = s["dur_us"] / 1000.0
        row = rows[s["name"]]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ms[s["id"]]
    return dict(rows)


def format_table(rows):
    total_self = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'layer':<20} {'count':>7} {'total ms':>12} {'self ms':>12} "
             f"{'self %':>7}"]
    for name, (count, total, own) in sorted(rows.items(),
                                            key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<20} {count:>7} {total:>12.1f} {own:>12.1f} "
                     f"{100.0 * own / total_self:>6.1f}%")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(format_table(self_times(load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
