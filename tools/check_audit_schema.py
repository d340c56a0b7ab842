#!/usr/bin/env python3
"""Validate the schema of an AUDIT_*.json report from cgdnn_audit.

Usage:
    tools/check_audit_schema.py AUDIT_lenet.json [--require-counters]
        [--forbid-counters]

Checks the structural contract documented in docs/observability.md:
top-level keys, per-layer speedup/efficiency curves keyed by the declared
thread counts, machine peaks, and the counter-field discipline — counter
fields (ipc, llc_miss_rate) must be *absent* (not zeroed) when
counters_available is false. Exits 1 with a message on the first violation.
"""
import argparse
import json
import sys

COUNTER_FIELDS = ("ipc", "llc_miss_rate")
REQUIRED_TOP = ("audit", "model", "iterations", "threads", "base_threads",
                "counters_available", "machine", "layers", "overall")
REQUIRED_LAYER = ("name", "phase", "flops", "bytes", "ai", "time_us",
                  "speedup", "efficiency", "imbalance", "straggler_tid",
                  "achieved_gflops", "attainable_gflops", "roof_efficiency",
                  "bound")
BOUND_CLASSES = {"compute", "memory", "imbalance", "unknown"}


def fail(msg):
    print(f"schema error: {msg}", file=sys.stderr)
    sys.exit(1)


def check_thread_map(owner, field, value, thread_keys, full=False):
    if not isinstance(value, dict):
        fail(f"{owner}.{field} is not an object")
    extra = set(value) - thread_keys
    if extra:
        fail(f"{owner}.{field} has keys {sorted(extra)} outside the "
             f"declared thread list")
    if full and set(value) != thread_keys:
        fail(f"{owner}.{field} is missing thread keys "
             f"{sorted(thread_keys - set(value))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("--require-counters", action="store_true",
                    help="fail unless counters_available is true")
    ap.add_argument("--forbid-counters", action="store_true",
                    help="fail if any counter-derived field is present")
    args = ap.parse_args()

    with open(args.report) as f:
        data = json.load(f)

    for key in REQUIRED_TOP:
        if key not in data:
            fail(f"missing top-level key '{key}'")
    threads = data["threads"]
    if (not isinstance(threads, list) or not threads
            or any(not isinstance(t, int) or t <= 0 for t in threads)):
        fail("'threads' must be a non-empty list of positive ints")
    thread_keys = {str(t) for t in threads}
    if data["base_threads"] not in threads:
        fail("'base_threads' not in 'threads'")

    counters = data["counters_available"]
    if not isinstance(counters, bool):
        fail("'counters_available' must be a boolean")
    if args.require_counters and not counters:
        fail("counters_available is false but --require-counters was given")
    if args.forbid_counters and counters:
        fail("counters_available is true but --forbid-counters was given")

    peaks = data["machine"].get("peaks")
    if not isinstance(peaks, dict) or set(peaks) != thread_keys:
        fail("'machine.peaks' must carry one entry per thread count")
    for t, peak in peaks.items():
        for key in ("gflops", "mem_gbps", "ridge_ai"):
            if not isinstance(peak.get(key), (int, float)):
                fail(f"machine.peaks[{t}].{key} missing or non-numeric")
        # Probe sanity verdicts: a T-thread reading below the 1-thread one
        # is re-run once (probe_rerun) and flagged if still low.
        for key in ("probe_rerun", "probe_suspect"):
            if not isinstance(peak.get(key), bool):
                fail(f"machine.peaks[{t}].{key} missing or not a boolean")
        if peak["probe_suspect"] and not peak["probe_rerun"]:
            fail(f"machine.peaks[{t}]: probe_suspect without probe_rerun")
        if (peak["probe_rerun"] or peak["probe_suspect"]) and t == "1":
            fail("machine.peaks[1]: the 1-thread probe has no reference "
                 "to re-run against")
        # ISA-derived peak (lanes x FMA ports x clock): omitted when the
        # CPU does not report its clock (cpuid leaf 0x16 reads 0).
        if "theoretical_gflops" in peak:
            theo = peak["theoretical_gflops"]
            if not isinstance(theo, (int, float)) or theo <= 0:
                fail(f"machine.peaks[{t}].theoretical_gflops must be a "
                     "positive number when present")

    if not isinstance(data["layers"], list) or not data["layers"]:
        fail("'layers' must be a non-empty list")
    saw_counter_field = False
    for layer in data["layers"]:
        owner = f"layer {layer.get('name', '?')}.{layer.get('phase', '?')}"
        for key in REQUIRED_LAYER:
            if key not in layer:
                fail(f"{owner}: missing key '{key}'")
        if layer["phase"] not in ("forward", "backward"):
            fail(f"{owner}: bad phase")
        # Curves must cover the full sweep; attribution/counter/roofline maps
        # may be sparse (a serial layer has no imbalance, a zero-FLOP layer
        # no roofline placement) but never carry undeclared thread keys.
        for field in ("time_us", "speedup", "efficiency"):
            check_thread_map(owner, field, layer[field], thread_keys,
                             full=True)
        for field in ("imbalance", "straggler_tid", "achieved_gflops",
                      "attainable_gflops", "roof_efficiency"):
            check_thread_map(owner, field, layer[field], thread_keys)
        check_thread_map(owner, "bound", layer["bound"], thread_keys)
        for t, cls in layer["bound"].items():
            if cls not in BOUND_CLASSES:
                fail(f"{owner}: bound[{t}] = '{cls}' not in "
                     f"{sorted(BOUND_CLASSES)}")
        base = str(data["base_threads"])
        if abs(layer["speedup"][base] - 1.0) > 1e-9:
            fail(f"{owner}: speedup at base_threads must be 1.0")
        for field in COUNTER_FIELDS:
            if field in layer:
                saw_counter_field = True
                check_thread_map(owner, field, layer[field], thread_keys)
                if not counters:
                    fail(f"{owner}: counter field '{field}' present although "
                         f"counters_available is false (fields must be "
                         f"absent, not zeroed)")

    overall = data["overall"]
    for field in ("time_us", "speedup", "efficiency"):
        check_thread_map("overall", field, overall.get(field, None),
                         thread_keys, full=True)

    # Optional serving section (--serve): its curves are keyed by WORKER
    # counts, independent of the training sweep's thread list.
    if "serving" in data:
        serving = data["serving"]
        workers = serving.get("workers")
        if (not isinstance(workers, list) or not workers
                or any(not isinstance(w, int) or w <= 0 for w in workers)):
            fail("serving.workers must be a non-empty list of positive ints")
        worker_keys = {str(w) for w in workers}
        for field in ("rate_factor", "duration_s"):
            if not isinstance(serving.get(field), (int, float)):
                fail(f"serving.{field} missing or non-numeric")
        for field in ("sustainable_qps", "offered_qps", "achieved_qps",
                      "p50_us", "p99_us", "admitted_p50_us",
                      "admitted_p99_us", "shed_rate", "batch_size_mean",
                      "straggler_frac"):
            check_thread_map("serving", field, serving.get(field),
                             worker_keys, full=True)
        for field in ("shed_rate", "straggler_frac"):
            for w, rate in serving[field].items():
                if not 0.0 <= rate <= 1.0:
                    fail(f"serving.{field}[{w}] = {rate} outside [0, 1]")
        # Tail attribution: one classification label per worker count,
        # from the documented set (serve/stats.hpp).
        classes = serving.get("p99_class")
        if not isinstance(classes, dict) or set(classes) != worker_keys:
            fail("serving.p99_class must map every worker count")
        allowed = {"idle", "queue_bound", "batch_deadline_bound",
                   "compute_bound", "straggler_bound"}
        for w, label in classes.items():
            if label not in allowed:
                fail(f"serving.p99_class[{w}] = {label!r} not in {allowed}")

    if args.require_counters and not saw_counter_field:
        fail("counters_available is true but no layer carries a counter "
             "field")
    n_layers = len(data["layers"])
    print(f"OK: {args.report} valid ({n_layers} layer/phase rows, "
          f"threads={threads}, counters={'on' if counters else 'off'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
