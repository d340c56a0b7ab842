#!/usr/bin/env bash
# One-stop static + dynamic analysis gate (docs/correctness.md):
#
#   1. tools/lint_parallel.py         — parallel-discipline lint over src/
#   2. tools/lint_locks.py            — lock-discipline lint (order graph,
#                                       blocking-under-lock, condvar
#                                       predicates, memory_order) plus the
#                                       clang -Wthread-safety build when
#                                       clang++ is installed
#   3. tools/run_clang_tidy.sh        — clang-tidy, if installed
#   4. sanitize preset (ASan+UBSan)   — parallel-relevant test suites, then
#                                       the GEMM/direct-conv suites once per
#                                       CGDNN_ISA value the host supports
#   5. tsan preset (ThreadSanitizer)  — same suites, tsan.supp applied
#
# Sanitizer stages build incrementally into build-sanitize/ and build-tsan/.
# Skippable pieces (no clang-tidy, no TSan support in the toolchain) are
# reported as SKIP, not failure; everything that runs must pass.
#
# Usage: run_checks.sh [--fast]   (--fast = lint + tidy only, no sanitizers)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}" || exit 1
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

failures=0
note() { printf '\n== %s\n' "$*"; }
result() {  # result <name> <status>  (status 0 pass, 77 skip, else fail)
  if [[ $2 -eq 0 ]]; then
    echo "-- $1: PASS"
  elif [[ $2 -eq 77 ]]; then
    echo "-- $1: SKIP"
  else
    echo "-- $1: FAIL"
    failures=$((failures + 1))
  fi
}

# The parallel-relevant suites: serial-vs-parallel equivalence, the
# region helper (exception capture, partition, armed layer sweep), the
# merge/privatizer/coalescing unit tests, and the cgdnn-check runtime
# checker. Anchored names: a bare "Merge" would also pull in the (slow)
# convergence training runs.
parallel_tests='ParallelEquivalence|PerLayerThreadSweep|WriteSetCheckerTest|CheckedModels|ParallelRegion|MergeModes|MergeOrdered\.|MergeTree\.|PrivatizationPool|CoalescedRange|StaticChunk|BlackboxTest|ServeTest|ServeStatsTest|SyncPrimitives|LayerPhaseScope|LayerPhaseMetrics|TracedMerge|Tracer\.ConcurrentEmissionLosesNothing'
# TSan runs the unit-level parallel suites plus single-thread model passes.
# Whole-model multi-thread runs are excluded: TSan-instrumented GEMM inner
# loops plus libgomp's ordered-section spin wait (which ignores
# OMP_WAIT_POLICY) make them take tens of minutes per test on few-core
# hosts. On a many-core machine run them directly with
#   ctest --preset tsan -R 'PerLayerThreadSweep|CheckedModels'
# BlackboxTest rides along in both sanitizer stages: the recorder's
# lock-free rings and watchdog reads must be TSan-clean by construction.
#
# ServeTest rides along in both stages — the serving pool is the one
# subsystem whose threads are hand-rolled (queue, workers, supervisor)
# rather than OpenMP teams. TSan gets the concurrency-critical subset:
# the OMP-heavy bit-identity sweep and the 5s load-generator soak are
# excluded for the same few-core-host reasons as the whole-model runs.
# ServeStatsTest (live-stats exporter) joins the same way: the sliding-
# window/exemplar/publisher concurrency cases run under TSan, the two
# model-forward cases (stage telescoping, trace flows) under ASan only.
tsan_tests='WriteSetCheckerTest|CheckedModels.*threads1$|ParallelRegion|LayerPhaseScope|TracedMerge|Tracer\.ConcurrentEmissionLosesNothing|MergeModes|MergeOrdered\.|MergeTree\.|PrivatizationPool|CoalescedRange|StaticChunk|BlackboxTest|ServeTest\.(QueueIsBounded|ExpiredRequests|CompleteOnce|ServerForwards|AdmissionSheds|DegradationLadder|StalledWorker|DropResponse)|ServeStatsTest\.(SlidingHistogram|SlidingCounter|Exemplars|TailClassifier|SnapshotFile)|SyncPrimitives'

note "lint_parallel"
python3 tools/lint_parallel.py --self-test && python3 tools/lint_parallel.py
result "lint_parallel" $?

note "lock-lint"
# Lock-discipline gate (docs/correctness.md "Concurrency contracts"):
# fixture self-test, then the tree run — any new violation exits 1. The
# tree run refreshes the lock-order graph artifacts under build/.
mkdir -p build
python3 tools/lint_locks.py --self-test && \
  python3 tools/lint_locks.py --graph-json build/lock_order.json \
    --dot build/lock_order.dot
result "lock-lint" $?

note "thread-safety (clang -Wthread-safety -Werror)"
# Availability-gated like clang-tidy: GCC cannot run the analysis, so the
# stage SKIPs on images without clang++ (the script itself exits 77).
bash tools/thread_safety_check.sh
result "thread-safety" $?

note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  bash tools/run_clang_tidy.sh --subset
  result "clang-tidy" $?
else
  result "clang-tidy" 77
fi

if [[ ${fast} -eq 1 ]]; then
  [[ ${failures} -eq 0 ]] && echo "run_checks: fast checks clean"
  exit $((failures > 0))
fi

note "plan drills (smoke + bad-plan sentinel)"
# Execution-planner gates: plan dump/cache smoke and the injected arena
# collision that `cgdnn_plan --validate` must reject. ctest `checks` cases;
# SKIP when the default build tree is absent.
if [[ -f build/CTestTestfile.cmake ]]; then
  ( cd build && ctest -R 'plan_smoke|plan_regression_check' \
      --output-on-failure )
  result "plan-drills" $?
else
  result "plan-drills" 77
fi

note "serve drills (overload shed + SIGTERM drain + stalled worker + stats)"
# Serving-runtime gates: 3x-overload must shed explicitly with a bounded
# queue and deadline-bounded admitted p99, SIGTERM must drain cleanly, and
# an injected worker stall must be excluded without taking the pool down.
# serve_stats_check adds the observability gate: live snapshots must be
# readable mid-run, windowed percentiles must agree with exact end-of-run
# ones within 5%, and request flows must connect across threads in the
# Chrome trace.
if [[ -f build/CTestTestfile.cmake ]]; then
  ( cd build && ctest -R 'serve_overload_check|serve_stats_check' \
      --output-on-failure )
  result "serve-drills" $?
else
  result "serve-drills" 77
fi

note "blackbox drills (crash dump + watchdog)"
# End-to-end flight-recorder forensics against the regular build: injected
# SIGSEGV -> decodable dump, injected merge stall -> watchdog abort. Both
# are ctest `checks` cases; SKIP when the default build tree is absent.
if [[ -f build/CTestTestfile.cmake ]]; then
  ( cd build && ctest -R 'crash_dump_check|watchdog_check' \
      --output-on-failure )
  result "blackbox-drills" $?
else
  result "blackbox-drills" 77
fi

run_sanitizer_preset() {  # run_sanitizer_preset <preset> <test-regex>
  local preset="$1" tests="$2"
  cmake --preset "${preset}" >/dev/null || return 1
  cmake --build --preset "${preset}" -j "$(nproc)" || return 1
  ctest --preset "${preset}" -R "${tests}" --output-on-failure
}

note "sanitize preset (ASan+UBSan)"
run_sanitizer_preset sanitize "${parallel_tests}"
result "sanitize" $?

note "sanitize preset per GEMM ISA (ASan+UBSan)"
# Each ISA's microkernel has its own register tile, and the edge-tile
# stores of the wide AVX2/AVX-512 tiles (masked loads/stores) are where an
# overrun would hide. CGDNN_ISA picks the kernel per process; run the GEMM
# and direct-conv suites under every ISA this host can execute. The
# anchored regex leaves out the isa_<name>. re-registrations, which pin
# their own CGDNN_ISA.
gemm_tests='^(Gemm|Shapes/GemmAgainstNaive|Shapes/GemvAgainstNaive|DirectConv|PlanCache)'
host_isas="baseline"
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  host_isas+=" avx2"
fi
grep -qw avx512f /proc/cpuinfo && host_isas+=" avx512"
isa_status=0
for isa in ${host_isas}; do
  echo "-- CGDNN_ISA=${isa}"
  CGDNN_ISA="${isa}" ctest --preset sanitize -R "${gemm_tests}" \
    --output-on-failure || isa_status=1
done
result "sanitize-per-isa (${host_isas})" ${isa_status}

note "tsan preset (ThreadSanitizer)"
# Some images ship a gcc without usable libtsan; probe before committing to
# a full build so the stage degrades to SKIP instead of a config error.
if echo 'int main(){return 0;}' | \
   g++ -fsanitize=thread -x c++ - -o /tmp/cgdnn_tsan_probe 2>/dev/null; then
  rm -f /tmp/cgdnn_tsan_probe
  # Passive waiting: libgomp's default spin-wait at barriers is
  # pathological for oversubscribed teams under TSan's serialization.
  OMP_WAIT_POLICY=passive run_sanitizer_preset tsan "${tsan_tests}"
  result "tsan" $?
else
  result "tsan" 77
fi

echo
if [[ ${failures} -eq 0 ]]; then
  echo "run_checks: all checks clean"
  exit 0
fi
echo "run_checks: ${failures} stage(s) failed" >&2
exit 1
