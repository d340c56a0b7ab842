#!/usr/bin/env python3
"""Pool several runs of one bench into a baseline report.

Usage:
    tools/pool_bench_runs.py OUT.json RUN1.json RUN2.json [...]

Wall-clock timing on a shared host drifts between processes (thread
placement, clock changes, neighbours' load) by more than one run's own
repetitions show. A baseline pooled over separate runs records that drift.
Every value becomes the median across the runs that have it, and each row
gains a "run_spread" entry: for every gated column (compare_bench.direction
is not "info"), three robust standard deviations of the per-run values,
relative to their median, e.g.

    {"section": "iteration_us", "key": "4T",
     "values": {"min": ..., "p50": 34750.0, "max": ...},
     "run_spread": {"p50": 0.203}}

The robust deviation is 1.4826 x the median absolute deviation (equal to
the standard deviation for normal noise). Unlike a min..max range it is
not set by one disturbed run: a minority of runs slowed 2-3x by a busy
host leaves it almost unchanged. compare_bench.py gates each such value
within its run spread. The "meta" header is the first run's, with "pooled_runs" added.
"""
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_bench import direction  # noqa: E402

# Three robust standard deviations (1.4826 x MAD estimates sigma).
SPREAD_SIGMAS = 3 * 1.4826


def run_spread(vals):
    """Three robust standard deviations of `vals`, relative to their median."""
    med = statistics.median(vals)
    if med == 0:
        return 0.0
    mad = statistics.median(abs(v - med) for v in vals)
    return SPREAD_SIGMAS * mad / abs(med)


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_paths = sys.argv[1], sys.argv[2:]
    runs = []
    for path in run_paths:
        with open(path) as f:
            runs.append(json.load(f))
    benches = {run.get("bench") for run in runs}
    if len(benches) != 1:
        print(f"error: runs come from different benches: {benches}",
              file=sys.stderr)
        return 2

    order, samples = [], {}
    for run in runs:
        for row in run.get("rows", []):
            coord = (row["section"], row["key"])
            if coord not in samples:
                samples[coord] = {}
                order.append(coord)
            for col, val in row.get("values", {}).items():
                samples[coord].setdefault(col, []).append(float(val))

    rows = []
    for section, key in order:
        cols = samples[(section, key)]
        row = {"section": section, "key": key,
               "values": {col: statistics.median(vals)
                          for col, vals in cols.items()}}
        spread = {col: run_spread(vals) for col, vals in cols.items()
                  if len(vals) > 1 and direction(section, key, col) != "info"}
        if spread:
            row["run_spread"] = spread
        rows.append(row)

    meta = dict(runs[0].get("meta", {}))
    meta["pooled_runs"] = len(runs)
    # Same layout as bench::BenchReport::Write: one row per line.
    with open(out_path, "w") as f:
        f.write(f'{{\n  "bench": {json.dumps(benches.pop())},\n'
                f'  "meta": {json.dumps(meta)},\n  "rows": [')
        f.write(",".join(f"\n    {json.dumps(row)}" for row in rows))
        f.write("\n  ]\n}\n")
    print(f"pooled {len(runs)} runs into {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
