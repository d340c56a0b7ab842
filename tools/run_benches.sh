#!/usr/bin/env sh
# Runs every figure/table/ablation bench and collects the machine-readable
# BENCH_<name>.json reports under bench/results/.
#
#   tools/run_benches.sh [--quick] [--serve] [build_dir]   (default: build)
#
# --quick runs a <60s subset (one layer-time figure, one overall figure, the
# reduction-mode ablation, a 2-iteration audit) — enough coordinates for
# compare_bench.py to gate a change against bench/baselines/ without the
# full sweep. --serve runs ONLY the serving-runtime bench (BENCH_serve.json:
# latency percentiles, QPS, shed rate, tail attribution; baseline under
# bench/baselines/) plus a short cgdnn_serve run that collects the
# live-stats snapshot series (serve_stats.json[l]).
# Every report carries a "meta" provenance header (git SHA,
# compiler, flags, thread count, hostname) for exactly that comparison.
#
# Human-readable figure output goes to bench/results/<name>.txt alongside
# each JSON report. micro_kernels (google-benchmark) uses its native JSON
# reporter.
set -eu

QUICK=0
SERVE_ONLY=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --serve) SERVE_ONLY=1 ;;
    *) BUILD_DIR=$arg ;;
  esac
done
REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BENCH_DIR="$REPO_ROOT/$BUILD_DIR/bench"
RESULTS_DIR="$REPO_ROOT/bench/results"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found — build first: cmake --build $BUILD_DIR" >&2
  exit 1
fi

mkdir -p "$RESULTS_DIR"
cd "$RESULTS_DIR"

BENCHES="fig4_mnist_layer_time fig5_mnist_layer_scalability \
fig6_mnist_overall fig7_cifar_layer_time fig8_cifar_layer_scalability \
fig9_cifar_overall tab_memory_overhead abl_reduction_modes abl_coalescing \
abl_blas_vs_batch bench_plan bench_serve"
if [ "$QUICK" -eq 1 ]; then
  BENCHES="fig4_mnist_layer_time fig6_mnist_overall abl_reduction_modes \
bench_plan"
fi
if [ "$SERVE_ONLY" -eq 1 ]; then
  BENCHES="bench_serve"
fi

for name in $BENCHES; do
  bin="$BENCH_DIR/$name"
  if [ ! -x "$bin" ]; then
    echo "skip: $name (not built)" >&2
    continue
  fi
  echo "== $name"
  "$bin" > "$name.txt"
done

# Live-stats series for the serving bench: a short real cgdnn_serve run
# publishing its sliding-window snapshot every 250 ms. The JSONL series
# (serve_stats.jsonl) and the final snapshot land next to BENCH_serve.json
# for offline inspection (tools/cgdnn_stats --snapshot=... or jq); the
# run summary (SERVE_summary.json) carries the end-of-run window for the
# windowed-vs-exact percentile cross-check (docs/observability.md).
SERVE_BIN="$REPO_ROOT/$BUILD_DIR/tools/cgdnn_serve"
if [ "$QUICK" -eq 0 ] && [ -x "$SERVE_BIN" ]; then
  echo "== cgdnn_serve (live-stats series)"
  rm -f serve_stats.jsonl  # history appends; keep one run per collection
  "$SERVE_BIN" --model=lenet --workers=2 --threads=1 --no-plan \
    --rate=0.7x --duration-s=2 --retries=0 \
    --stats-out=serve_stats.json --stats-history=serve_stats.jsonl \
    --stats-period-ms=250 --stats-window-s=60 \
    --json-out=SERVE_summary.json > /dev/null 2> serve_stats.txt
fi

# micro_kernels first runs the old-vs-new GEMM engine sweep (writes
# BENCH_gemm_micro.json into the cwd), then the google-benchmark primitives
# (native JSON reporter). Gate a change with e.g.:
#   tools/compare_bench.py baseline/BENCH_gemm_micro.json \
#       bench/results/BENCH_gemm_micro.json
if [ "$QUICK" -eq 0 ] && [ "$SERVE_ONLY" -eq 0 ] && \
   [ -x "$BENCH_DIR/micro_kernels" ]; then
  echo "== micro_kernels"
  "$BENCH_DIR/micro_kernels" \
    --benchmark_out="BENCH_micro_kernels.json" \
    --benchmark_out_format=json > micro_kernels.txt
fi

# Scalability/roofline audit (small iteration budget — the per-layer curves
# are what matters, not long steady-state numbers). AUDIT_lenet.json sits
# next to the BENCH reports so compare_bench.py directory mode picks it up:
#   tools/compare_bench.py baseline_results/ bench/results/
AUDIT_BIN="$REPO_ROOT/$BUILD_DIR/tools/cgdnn_audit"
if [ "$SERVE_ONLY" -eq 1 ]; then
  : # serve-only mode: just bench_serve above
elif [ -x "$AUDIT_BIN" ]; then
  echo "== cgdnn_audit (lenet)"
  if [ "$QUICK" -eq 1 ]; then
    "$AUDIT_BIN" --model=lenet --threads=1,2 --iterations=2 --warmup=1 \
      --audit-out="AUDIT_lenet.json" > audit_lenet.txt
  else
    "$AUDIT_BIN" --model=lenet --threads=1,2,4 --iterations=3 --warmup=1 \
      --audit-out="AUDIT_lenet.json" > audit_lenet.txt
  fi
else
  echo "skip: cgdnn_audit (not built)" >&2
fi

echo "reports in $RESULTS_DIR:"
ls -1 BENCH_*.json AUDIT_*.json 2>/dev/null
