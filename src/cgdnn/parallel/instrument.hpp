// Per-region observability hooks for the coarse-grain parallel loops.
//
// The paper's scalability analysis (§4.1, §4.3) hinges on how evenly a
// coalesced worksharing loop distributes across the team. RegionStats
// collects each thread's busy time for one parallel region, emits one trace
// span per thread (so the region shows up on every thread's timeline in
// chrome://tracing) and records the load-imbalance ratio — max over mean
// per-thread busy time, 1.0 = perfectly balanced — into the metrics
// registry as `region.<name>.imbalance`, together with the straggler's
// thread id (`region.<name>.straggler_tid`).
//
// When hardware-counter collection is armed (perfctr::SetActive), each
// ThreadRegionScope additionally samples its thread's counter group at the
// chunk boundaries: the per-thread deltas ride on the trace spans as args,
// and the region totals land in the registry as
// `region.<name>.{cycles,instructions,...}` counters plus derived
// `ipc_last` / `llc_miss_rate_last` gauges. Counters missing on the host
// record nothing — output fields are absent, never zeroed.
//
// Layers never use these directly: the region helper (region.hpp) wraps
// every layer region in them. Its internals, for other region owners:
//   parallel::RegionStats rs("conv1.forward", nthreads);  // serial
//   #pragma omp parallel num_threads(nthreads)
//   {
//     {
//       parallel::ThreadRegionScope scope(rs, tid);  // times only the
//       body(chunk);                                 // thread's own work
//     }
//     #pragma omp barrier    // before any merge of private sums
//   }                        // ~RegionStats after the join: metrics and
//                            // write-set verification
//
// When neither tracing nor metrics collection is active the constructor
// reads one atomic flag and every hook is a no-op — the disabled cost is a
// branch per region, not per iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/perfctr/perfctr.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::parallel {

class RegionStats {
 public:
  /// Serial, before the parallel region opens.
  RegionStats(std::string name, int nthreads);
  /// Serial, after the region joins: records imbalance + counter metrics,
  /// then verifies the region's write sets when cgdnn-check is armed
  /// (throwing cgdnn::Error on a partition violation).
  ~RegionStats() noexcept(false);
  RegionStats(const RegionStats&) = delete;
  RegionStats& operator=(const RegionStats&) = delete;

  bool active() const { return active_; }
  /// True when per-thread counter sampling is on for this region.
  bool counters_active() const { return counters_active_; }
  const std::string& name() const { return name_; }

  /// Called by `tid` only (its own slot): accumulates busy nanoseconds.
  void AddThreadBusyNs(int tid, std::uint64_t busy_ns);
  /// Called by `tid` only (its own slot): accumulates counter deltas.
  void AddThreadDelta(int tid, const perfctr::Delta& delta);

  /// max/mean busy time over threads that did any work; 0 before the
  /// region ran. Exposed for tests.
  double ImbalanceRatio() const;
  /// Thread id with the largest busy time (-1 before the region ran).
  /// The "who is the straggler" half of the imbalance attribution.
  int StragglerTid() const;
  /// Sum of per-thread counter deltas (invalid when none were recorded).
  perfctr::Delta TotalDelta() const;

  /// The region's write-set checker: non-null only while cgdnn-check is
  /// armed (CGDNN_CHECK=on / check::ScopedEnable). The region helper hands
  /// it to each Chunk, whose Wrote() forwards the layer's declared
  /// shared-buffer writes to RecordWrite.
  check::WriteSetChecker* checker() { return checker_.get(); }

 private:
  std::string name_;
  int nthreads_ = 0;
  std::vector<std::uint64_t> busy_ns_;
  std::vector<perfctr::Delta> deltas_;
  std::unique_ptr<check::WriteSetChecker> checker_;
  std::unique_ptr<check::CurrentRegionBinding> checker_binding_;
  bool active_ = false;
  bool counters_active_ = false;
};

/// RAII per-thread hook: times the enclosed worksharing chunk, feeds the
/// RegionStats slot and emits the thread's span (with counter-delta args
/// when counter collection is on).
class ThreadRegionScope {
 public:
  ThreadRegionScope(RegionStats& stats, int tid)
      : stats_(stats), tid_(tid) {
    blackbox::PushPosition(blackbox::EventKind::kChunkBegin,
                           stats_.name().c_str(),
                           static_cast<std::uint64_t>(tid));
    if (!stats_.active()) return;
    if (stats_.counters_active()) {
      start_sample_ = perfctr::ReadThreadCounters();
    }
    start_ns_ = trace::NowNs();
  }
  ~ThreadRegionScope() {
    blackbox::PopPosition(blackbox::EventKind::kChunkEnd,
                          stats_.name().c_str(),
                          static_cast<std::uint64_t>(tid_));
    // The scope closes right after the thread's worksharing chunk, so it
    // doubles as the write-phase boundary for the race checker: any merge
    // entered before every thread passed this point is missing its barrier.
    if (auto* chk = stats_.checker()) chk->EndWritePhase(tid_);
    if (!stats_.active()) return;
    const std::uint64_t end_ns = trace::NowNs();
    stats_.AddThreadBusyNs(tid_, end_ns - start_ns_);
    perfctr::Delta delta;
    if (start_sample_.valid) {
      delta = perfctr::ComputeDelta(start_sample_,
                                    perfctr::ReadThreadCounters());
      stats_.AddThreadDelta(tid_, delta);
    }
    if (trace::TracingActive()) {
      trace::Tracer::Get().Emit("region", stats_.name(), start_ns_, end_ns,
                                trace::CounterTraceArgs(delta));
    }
  }
  ThreadRegionScope(const ThreadRegionScope&) = delete;
  ThreadRegionScope& operator=(const ThreadRegionScope&) = delete;

 private:
  RegionStats& stats_;
  int tid_;
  std::uint64_t start_ns_ = 0;
  perfctr::Sample start_sample_;
};

}  // namespace cgdnn::parallel
