#!/usr/bin/env python3
"""Diff bench/audit JSON reports and fail on regressions.

Usage:
    tools/compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
    tools/compare_bench.py baseline_dir/ current_dir/ [--threshold 0.10]
    tools/compare_bench.py ... --json[=diff.json]

Two input kinds are understood, sniffed from the file contents:

  * BENCH_*.json from bench::BenchReport:
        {"bench": "...", "rows": [{"section": s, "key": k, "values": {col: n}}]}
  * AUDIT_*.json from cgdnn_audit:
        per-layer thread-keyed curves (time_us / speedup / efficiency /
        imbalance / ipc / ...) plus machine peaks and overall totals. Each
        curve entry is flattened to a (section, key, column) coordinate, e.g.
        ("conv1.forward", "efficiency", "4t").

When both arguments are directories, files named BENCH_*.json or AUDIT_*.json
are glob-matched by basename and each pair is compared in turn; files present
on only one side are listed but do not fail the run.

Every (section, key, column) present in both sides is compared. Direction is
inferred from the coordinate name:

  * higher-is-better: gflops, speedup, efficiency, ipc, *_qps
  * lower-is-better:  *_us, time, _kb, _mb, imbalance, llc_miss_rate,
                      shed_rate, shed_frac, straggler_frac
  * everything else is informational (printed, never fails)

A value that moves more than --threshold (default 10%) in the *bad* direction
is a regression; the script prints every comparison, summarizes regressions,
and exits 1 if any were found. Entries present in only one file are listed
but do not fail the comparison (shape sweeps may grow over time).

Measured BENCH rows record "min", "p50" and "max" over their repetitions;
the p50 is the gated value, while min and max describe one run's spread and
are printed, not gated (one fast or slow repetition is noise, not a
regression). A baseline pooled over separate runs (tools/pool_bench_runs.py)
records each gated value's run-to-run noise as "run_spread": {col: s},
three robust standard deviations of the per-run values relative to their
median. Against such a baseline the tolerance widens to s whenever s
exceeds --threshold, applied as a ratio in both directions: a
lower-is-better value fails above baseline * (1 + s), a higher-is-better
one below baseline / (1 + s), so a halved speedup or a doubled time fails
whenever s < 100%. A wobble inside the drift the baseline runs themselves
showed passes; a shift beyond it still fails. On a noisy host, pool the
current side over a few runs the same way: its medians are then compared.

When both reports' meta headers carry "peak_rss_kb" (every tool stamps it
via buildinfo::WriteMetaJson), the peak-RSS delta is compared as a
lower-is-better coordinate like any other — a memory regression beyond the
threshold fails the run just as a time regression does.

--json emits the full diff as machine-readable JSON on stdout (or to the
given file), with the human-readable table diverted to stderr; the exit
status is unchanged. Schema: {"threshold": t, "ok": bool, "pairs":
[{"label", "baseline", "current", "rows": [{"section", "key", "column",
"baseline", "current", "delta", "direction", "regression"}], "only_in_*"}],
"regressions": [...]}.
"""
import argparse
import glob
import json
import os
import sys

# Per-layer audit fields flattened into comparable coordinates. Counter
# fields (ipc, llc_miss_rate) are included when present; a baseline captured
# with counters vs a current run without simply yields one-sided entries.
AUDIT_CURVES = ("time_us", "speedup", "efficiency", "imbalance", "ipc",
                "llc_miss_rate", "achieved_gflops", "roof_efficiency")


def flatten_audit(data):
    rows = {}
    for layer in data.get("layers", []):
        section = f"{layer.get('name', '?')}.{layer.get('phase', '?')}"
        for field in AUDIT_CURVES:
            for threads, val in layer.get(field, {}).items():
                if isinstance(val, (int, float)):
                    rows[(section, field, f"{threads}t")] = float(val)
    for field, curve in data.get("overall", {}).items():
        for threads, val in curve.items():
            if isinstance(val, (int, float)):
                rows[("overall", field, f"{threads}t")] = float(val)
    for threads, peak in data.get("machine", {}).get("peaks", {}).items():
        for key in ("gflops", "mem_gbps"):
            if isinstance(peak.get(key), (int, float)):
                rows[("machine", key, f"{threads}t")] = float(peak[key])
    return "audit:" + data.get("model", "?"), rows


def format_meta(meta):
    """One-line provenance summary from a report's "meta" header."""
    if not isinstance(meta, dict):
        return "(no meta header)"
    fields = ("git_sha", "build_type", "compiler", "gemm_isa", "gemm_tile",
              "threads", "hostname", "options")
    parts = [f"{k}={meta[k]}" for k in fields if k in meta]
    return " ".join(parts) if parts else "(empty meta header)"


def load_rows(path):
    """Returns (name, {(section, key, column): value}, meta, spreads), where
    spreads maps a coordinate to a pooled baseline's recorded run spread."""
    with open(path) as f:
        data = json.load(f)
    meta = data.get("meta")
    spreads = {}
    if "audit" in data and "layers" in data:
        name, rows = flatten_audit(data)
    else:
        name, rows = data.get("bench", "?"), {}
        for row in data.get("rows", []):
            for col, val in row.get("values", {}).items():
                rows[(row["section"], row["key"], col)] = float(val)
            for col, spread in row.get("run_spread", {}).items():
                spreads[(row["section"], row["key"], col)] = float(spread)
    # Peak RSS from the meta header, when the producing tool stamped one:
    # compared lower-is-better like any other _kb coordinate, so memory
    # regressions gate the run exactly as time regressions do.
    if isinstance(meta, dict) and isinstance(meta.get("peak_rss_kb"),
                                             (int, float)):
        rows[("meta", "peak_rss_kb", "process")] = float(meta["peak_rss_kb"])
    return name, rows, meta, spreads


def direction(section, key, column):
    # Audit coordinates carry the metric name in the key slot
    # (e.g. "conv1.forward"/"efficiency"/"2t"); bench coordinates in the
    # section or column — match against all three.
    parts = (section.lower(), key.lower(), column.lower())
    # A measured row's min/max only describe one run's spread (module doc).
    if parts[2] in ("min", "max"):
        return "info"
    # "qps" before the lower-is-better pass: "sustainable_qps" would
    # otherwise substring-match the "us" marker.
    for marker in ("gflops", "speedup", "efficiency", "ipc", "qps"):
        if any(marker in p for p in parts):
            return "higher"
    for marker in ("us", "time", "_kb", "_mb", "imbalance", "llc_miss_rate",
                   "shed_rate", "shed_frac", "straggler_frac"):
        if any(marker in p for p in parts):
            return "lower"
    return "info"


def compare_pair(baseline, current, threshold, label=None, out=sys.stdout):
    """Compare one baseline/current file pair.

    Returns (common, regressions, record) where record is the pair's
    machine-readable diff for --json output.
    """
    base_name, base, base_meta, spreads = load_rows(baseline)
    cur_name, cur, cur_meta, _ = load_rows(current)
    if label:
        print(f"=== {label} ===", file=out)
    if base_name != cur_name:
        print(f"note: comparing different benches ({base_name} vs {cur_name})",
              file=out)

    common = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    regressions = []
    rows_out = []

    print(f"{'section/key/column':58s} {'baseline':>12s} {'current':>12s} "
          f"{'delta':>8s}", file=out)
    for coord in common:
        section, key, col = coord
        b, c = base[coord], cur[coord]
        delta = (c - b) / abs(b) if b != 0 else (0.0 if c == 0 else float("inf"))
        dirn = direction(section, key, col)
        spread = spreads.get(coord, 0.0)
        if dirn == "higher":
            bad = delta < -max(threshold, spread / (1 + spread))
        else:
            bad = dirn == "lower" and delta > max(threshold, spread)
        flag = " REGRESSION" if bad else ""
        print(f"{section + '/' + key + '/' + col:58s} {b:12.4g} {c:12.4g} "
              f"{delta:+7.1%}{flag}", file=out)
        rows_out.append({"section": section, "key": key, "column": col,
                         "baseline": b, "current": c,
                         "delta": None if delta == float("inf") else delta,
                         "direction": dirn, "regression": bad})
        if bad:
            regressions.append((coord, b, c, delta))

    for coord in only_base:
        print(f"only in baseline: {'/'.join(coord)}", file=out)
    for coord in only_cur:
        print(f"only in current:  {'/'.join(coord)}", file=out)
    if regressions:
        # A regression is only interpretable next to the provenance of both
        # runs — a compiler, flag, or thread-count difference explains far
        # more regressions than real code changes do.
        print(f"baseline meta: {format_meta(base_meta)}", file=out)
        print(f"current meta:  {format_meta(cur_meta)}", file=out)
        # The GEMM kernel is picked per process (CGDNN_ISA or cpuid): two
        # runs of one build on different ISAs differ in speed and in bits.
        isas = [m.get("gemm_isa") if isinstance(m, dict) else None
                for m in (base_meta, cur_meta)]
        if isas[0] != isas[1]:
            print(f"note: GEMM kernel ISA differs (baseline {isas[0]}, "
                  f"current {isas[1]})", file=out)
    record = {"label": label, "bench": cur_name,
              "baseline": os.fspath(baseline), "current": os.fspath(current),
              "rows": rows_out,
              "only_in_baseline": ["/".join(c) for c in only_base],
              "only_in_current": ["/".join(c) for c in only_cur]}
    return common, regressions, record


def collect_reports(directory):
    names = {}
    for pattern in ("BENCH_*.json", "AUDIT_*.json"):
        for path in glob.glob(os.path.join(directory, pattern)):
            names[os.path.basename(path)] = path
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline report file or directory")
    ap.add_argument("current", help="current report file or directory")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative regression tolerance (default 0.10 = 10%%)")
    ap.add_argument("--json", nargs="?", const="-", default=None,
                    metavar="FILE",
                    help="emit the diff as JSON to stdout (or FILE); the "
                         "human-readable table moves to stderr")
    args = ap.parse_args()

    # With --json on stdout, the table must not corrupt the JSON stream.
    out = sys.stderr if args.json == "-" else sys.stdout

    if os.path.isdir(args.baseline) != os.path.isdir(args.current):
        print("error: baseline and current must both be files or both be "
              "directories", file=sys.stderr)
        return 2

    pair_records = []
    if os.path.isdir(args.baseline):
        base_reports = collect_reports(args.baseline)
        cur_reports = collect_reports(args.current)
        pairs = sorted(set(base_reports) & set(cur_reports))
        if not pairs:
            print("error: no BENCH_*.json/AUDIT_*.json pairs matched between "
                  "the two directories", file=sys.stderr)
            return 2
        for name in sorted(set(base_reports) - set(cur_reports)):
            print(f"only in baseline dir: {name}", file=out)
        for name in sorted(set(cur_reports) - set(base_reports)):
            print(f"only in current dir:  {name}", file=out)
        compared, regressions = 0, []
        for name in pairs:
            common, regs, record = compare_pair(
                base_reports[name], cur_reports[name], args.threshold,
                label=name, out=out)
            compared += len(common)
            regressions.extend(regs)
            pair_records.append(record)
            print(file=out)
    else:
        compared_coords, regressions, record = compare_pair(
            args.baseline, args.current, args.threshold, out=out)
        compared = len(compared_coords)
        pair_records.append(record)
        print(file=out)

    if args.json is not None:
        report = {
            "threshold": args.threshold,
            "compared": compared,
            "ok": not regressions,
            "pairs": pair_records,
            "regressions": [
                {"section": s, "key": k, "column": c,
                 "baseline": b, "current": cur, "delta": delta}
                for (s, k, c), b, cur, delta in regressions],
        }
        if args.json == "-":
            json.dump(report, sys.stdout, indent=1)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w") as f:
                json.dump(report, f, indent=1)
            print(f"diff written to {args.json}", file=out)

    if regressions:
        print(f"FAIL: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} (or a value's recorded run spread):",
              file=out)
        for (section, key, col), b, c, delta in regressions:
            print(f"  {section}/{key}/{col}: {b:.4g} -> {c:.4g} ({delta:+.1%})",
                  file=out)
        return 1
    print(f"OK: {compared} values compared, no regression beyond "
          f"{args.threshold:.0%} (or a value's recorded run spread)",
          file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
