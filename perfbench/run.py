#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, prints its
metrics and correctness verdicts.

    python3 perfbench/run.py --workload train-cifar --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload

Run it from the root of a cgdnn checkout. The build goes to .bench_build/
and each run's raw samples (and, with --trace 1, its spans.json) to
.bench_build/out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("train-cifar", "train-lenet", "serve-steady")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    with open(BUILD_DIR / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                log(f"build failed: {' '.join(cmd)} (see {out.name})")
                sys.exit(1)
    return BUILD_DIR / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload == "all":
        # Each workload in its own process, so set-up time and peak RSS
        # belong to it.
        failed = [w for w in WORKLOADS if subprocess.call(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]) != 0]
        if failed:
            log(f"failed: {' '.join(failed)}")
        sys.exit(1 if failed else 0)

    binary = build()
    out_dir = BUILD_DIR / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out_dir}"]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench timed out after {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if rc != 0:
        log(f"perfbench exited with {rc}")
        sys.exit(1)

    raw = json.loads((out_dir / "raw.json").read_text())
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    if args.trace:
        spans = json.loads((out_dir / "spans.json").read_text())
        metrics, more = stats.per_layer(raw, spans)
        checks += more
        attempted = len(spans)
        failed = 0
        notes = [f"spans: {out_dir / 'spans.json'}"]
    else:
        metrics, attempted, failed, notes = stats.end_to_end(raw)

    p = raw["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={p['nproc']} isa={p['isa']} build={p['build_type']} "
          f"flags='{p['flags']}' {p['options']} {p['compiler']}")
    for note in notes:
        print(f"# {note}")
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {stats.unit_of(name)[0]}")
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    correct = failed_checks == 0
    result = {
        "correct": correct,
        "attempted": attempted + len(checks),
        "failed": failed + failed_checks,
        "metrics": {name: {"value": value, "unit": stats.unit_of(name)[0]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
