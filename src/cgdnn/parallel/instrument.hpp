// Per-layer-phase observability: the one recorder behind the paper's
// per-layer, per-phase and per-thread figures (§4.1, §4.3).
//
// A LayerPhaseScope brackets one `<layer>.forward|backward` phase on the
// thread that runs it (Layer::Forward/Backward open it) and owns everything
// observed about that phase:
//   * one flight-recorder position (layer_begin / layer_end), always on, so
//     crash dumps and the watchdog can name the phase in flight;
//   * one `layer` trace span on the opening thread's timeline;
//   * at close, one metric set under `layer.<layer>.<phase>.`: the `us`
//     histogram, plus — when a team ran a region inside the phase — the
//     load-imbalance ratio (max over mean per-thread busy time, 1.0 =
//     perfectly balanced) as `imbalance` / `imbalance_last`, the straggler's
//     thread id as `straggler_tid`, and with hardware counters armed
//     (perfctr::SetActive) the counter totals over every thread that ran
//     the phase (`cycles`, `instructions`, ..., `ipc_last`, ...). Counters
//     missing on the host record nothing — fields are absent, never zeroed.
//
// The region helper (region.hpp) reports into the phase open on the calling
// thread, LayerPhaseScope::Current(): each team thread wraps its chunk in a
// ThreadRegionScope, which records the chunk's flight-recorder position and
// `region` span and feeds the thread's busy time and counter delta into the
// phase. Its internals, for other region owners:
//   parallel::LayerPhaseScope phase("conv1.forward",     // serial
//                                   parallel::LayerPhase::kForward);
//   phase.BeginTeam(nthreads);
//   #pragma omp parallel num_threads(nthreads)
//   {
//     {
//       parallel::ThreadRegionScope scope(phase, checker, tid);
//       body(chunk);          // times only the thread's own work
//     }
//     #pragma omp barrier     // before any merge of private sums
//   }
//                             // ~LayerPhaseScope: one metric set
//
// When neither tracing nor metrics collection is active the scope reads one
// atomic flag and records only its flight-recorder position: no allocation,
// no string building, no clock read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/perfctr/perfctr.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::parallel {

enum class LayerPhase { kForward, kBackward };

/// "forward" / "backward".
const char* LayerPhaseName(LayerPhase phase);
/// The name a layer phase is observed under: "<layer>.<phase>".
std::string LayerPhaseKey(const std::string& layer, LayerPhase phase);

class LayerPhaseScope {
 public:
  /// Opens phase `name` (a LayerPhaseKey) on the calling thread. `name` must
  /// outlive the scope (layers pass a string they own).
  LayerPhaseScope(const char* name, LayerPhase phase);
  /// Records the phase's metrics and span, then restores the phase that was
  /// open before (phases nest only if a layer runs another layer).
  ~LayerPhaseScope();
  LayerPhaseScope(const LayerPhaseScope&) = delete;
  LayerPhaseScope& operator=(const LayerPhaseScope&) = delete;

  /// The phase open on the calling thread, or nullptr.
  static LayerPhaseScope* Current();

  const char* name() const { return name_; }
  bool active() const { return active_; }
  /// True when per-thread counter sampling is on for this phase.
  bool counters_active() const { return counters_active_; }

  /// Serial, before a region of `nthreads` opens inside the phase: sizes
  /// the per-thread slots when collecting.
  void BeginTeam(int nthreads);
  /// Called by `tid` only (its own slot): accumulates busy nanoseconds.
  void AddThreadBusyNs(int tid, std::uint64_t busy_ns);
  /// Called by `tid` only (its own slot): accumulates counter deltas.
  void AddThreadDelta(int tid, const perfctr::Delta& delta);

  /// max/mean busy time over threads that did any work; 0 when no region
  /// ran. Exposed for tests.
  double ImbalanceRatio() const;
  /// Thread id with the largest busy time (-1 when no region ran).
  int StragglerTid() const;

 private:
  const char* name_;
  LayerPhase phase_;
  LayerPhaseScope* saved_;
  bool active_ = false;
  bool counters_active_ = false;
  std::uint64_t start_ns_ = 0;
  perfctr::Sample start_sample_;
  std::vector<std::uint64_t> busy_ns_;
  std::vector<perfctr::Delta> deltas_;
};

/// RAII per-thread hook: brackets one thread's worksharing chunk with a
/// flight-recorder position, ends the thread's write phase for the armed
/// write-set checker, feeds the busy time and counter delta into the open
/// phase and emits the thread's `region` span (with counter-delta args when
/// counter collection is on).
class ThreadRegionScope {
 public:
  ThreadRegionScope(LayerPhaseScope& phase, check::WriteSetChecker* checker,
                    int tid)
      : phase_(phase), checker_(checker), tid_(tid) {
    blackbox::PushPosition(blackbox::EventKind::kChunkBegin, phase_.name(),
                           static_cast<std::uint64_t>(tid));
    if (!phase_.active()) return;
    if (phase_.counters_active()) {
      start_sample_ = perfctr::ReadThreadCounters();
    }
    start_ns_ = trace::NowNs();
  }
  ~ThreadRegionScope() {
    blackbox::PopPosition(blackbox::EventKind::kChunkEnd, phase_.name(),
                          static_cast<std::uint64_t>(tid_));
    // The scope closes right after the thread's worksharing chunk, so it
    // doubles as the write-phase boundary for the race checker: any merge
    // entered before every thread passed this point is missing its barrier.
    if (checker_ != nullptr) checker_->EndWritePhase(tid_);
    if (!phase_.active()) return;
    const std::uint64_t end_ns = trace::NowNs();
    phase_.AddThreadBusyNs(tid_, end_ns - start_ns_);
    perfctr::Delta delta;
    if (start_sample_.valid) {
      delta = perfctr::ComputeDelta(start_sample_,
                                    perfctr::ReadThreadCounters());
      phase_.AddThreadDelta(tid_, delta);
    }
    if (trace::TracingActive()) {
      trace::Tracer::Get().Emit("region", phase_.name(), start_ns_, end_ns,
                                trace::CounterTraceArgs(delta));
    }
  }
  ThreadRegionScope(const ThreadRegionScope&) = delete;
  ThreadRegionScope& operator=(const ThreadRegionScope&) = delete;

 private:
  LayerPhaseScope& phase_;
  check::WriteSetChecker* checker_;
  int tid_;
  std::uint64_t start_ns_ = 0;
  perfctr::Sample start_sample_;
};

}  // namespace cgdnn::parallel
