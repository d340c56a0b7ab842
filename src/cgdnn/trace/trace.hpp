// Per-thread span tracing for the coarse-grain runtime.
//
// The paper's evidence (Figures 4-9) is per-layer, per-thread timing: which
// OpenMP thread spent time where, how unbalanced a coalesced loop was, what
// the gradient merge cost. TRACE_SCOPE(category, name) records a span on the
// calling thread's private event log with nanosecond timestamps; the logs
// export as Chrome trace-event JSON loadable in chrome://tracing / Perfetto,
// so every thread of a parallel region appears as its own timeline row.
//
// Cost model: each thread appends to a log only it writes (lock-free on the
// hot path; a mutex is taken once per thread, at registration). When tracing
// is inactive, an instrumented scope costs one relaxed atomic load and a
// branch; compiling with CGDNN_TRACE_ENABLED=0 removes even that.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cgdnn/blackbox/blackbox.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/perfctr/perfctr.hpp"

#ifndef CGDNN_TRACE_ENABLED
#define CGDNN_TRACE_ENABLED 1
#endif

namespace cgdnn::trace {

/// Runtime collection switches. Tracing (span capture) and metrics
/// (registry updates) toggle independently; both default off.
bool TracingActive();
bool MetricsActive();
/// True when either kind of collection is on — instrumented regions use it
/// to skip per-thread timing entirely in the common (disabled) case.
bool CollectionActive();
void SetMetrics(bool active);

/// Nanoseconds since the tracer's epoch (first use of the process tracer).
std::uint64_t NowNs();

/// One numeric key/value attached to a span ("args" in the Chrome trace
/// format); used for hardware-counter deltas (cycles, ipc, llc_misses, ...).
struct TraceArg {
  const char* key;  ///< static string
  double value;
};

/// One recorded event. Most events are completed spans (phase 'X'); flow
/// events ('s'/'t'/'f') stitch spans on different threads into one causal
/// arrow (Perfetto renders them as connecting lines), and instants ('i')
/// mark a point in time (a shed decision, a ladder transition).
struct TraceEvent {
  std::string name;      ///< e.g. "conv1.forward" or "merge.ordered"
  const char* category;  ///< static string: "layer", "region", "merge", ...
  std::uint64_t start_ns = 0;  ///< relative to the tracer epoch
  std::uint64_t dur_ns = 0;
  int tid = 0;  ///< stable per-thread id (registration order)
  /// Chrome trace phase: 'X' complete span, 's' flow start, 't' flow step,
  /// 'f' flow end (bound to the enclosing slice), 'i' instant.
  char phase = 'X';
  /// Flow-binding id for 's'/'t'/'f' events; 0 otherwise.
  std::uint64_t flow_id = 0;
  /// Optional counter deltas over the span; empty when hardware-counter
  /// collection was off (absent, never zeroed).
  std::vector<TraceArg> args;
};

/// Flattens the present fields of a counter delta into span args
/// (raw event counts + derived ipc / llc_miss_rate / stalled_frac /
/// mux_scale). Invalid deltas flatten to an empty vector.
std::vector<TraceArg> CounterTraceArgs(const perfctr::Delta& delta);

/// Process-wide span collector. Start()/Stop()/Clear()/Write must be called
/// from serial code; Emit may be called concurrently from any thread.
class Tracer {
 public:
  static Tracer& Get();

  void Start();
  void Stop();
  /// Drops captured events; keeps thread registrations (serial only).
  void Clear();

  /// Records one completed span on the calling thread's log.
  void Emit(const char* category, std::string name, std::uint64_t start_ns,
            std::uint64_t end_ns);
  /// Same, with counter-delta (or other numeric) args attached.
  void Emit(const char* category, std::string name, std::uint64_t start_ns,
            std::uint64_t end_ns, std::vector<TraceArg> args);

  /// Records a flow event ('s' start, 't' step, 'f' end) on the calling
  /// thread. All events sharing `flow_id` form one flow; Perfetto draws the
  /// arrow between the slices enclosing each event's timestamp, which is
  /// how a request's cross-thread path (submit thread -> worker thread)
  /// renders as one connected chain.
  void EmitFlow(const char* category, std::string name, std::uint64_t ts_ns,
                std::uint64_t flow_id, char phase);
  /// Records a point-in-time ('i', thread-scoped) event on the calling
  /// thread, e.g. a shed decision or a degradation-ladder transition.
  void EmitInstant(const char* category, std::string name, std::uint64_t ts_ns,
                   std::vector<TraceArg> args = {});

  /// Event count over all threads (serial only: call after the traced
  /// parallel work has joined/barriered).
  std::size_t event_count() const;
  /// Number of distinct threads that have recorded at least one event.
  std::size_t thread_count() const;
  /// Copies all events out (serial only).
  std::vector<TraceEvent> Events() const;

  /// Writes the Chrome trace-event JSON array: one "X" (complete) event per
  /// span, "s"/"t"/"f" events carrying their flow "id" (flow ends bind to
  /// the enclosing slice via "bp":"e"), "i" instants, with "ts"/"dur" in
  /// microseconds. Serial only.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  Tracer() = default;
  struct ThreadLog;
  ThreadLog& Log();

  std::vector<ThreadLog*> logs_;  // owned; never freed while process lives
};

/// RAII span: captures the start time at construction and emits the event
/// at destruction. No-op (one atomic load) while tracing is inactive. When
/// hardware-counter collection is armed (perfctr::SetActive), the span also
/// samples the calling thread's counter group at both ends and attaches the
/// multiplex-scaled deltas as Chrome-trace args. `name` must outlive the
/// span (a literal or a string the caller owns): no string is copied while
/// tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) : name_(name) {
    // The flight recorder sees every span — even with tracing off — so a
    // crash dump can show what each thread was inside when it died.
    blackbox::Record(blackbox::EventKind::kSpanBegin, name_);
    if (!TracingActive()) return;
    active_ = true;
    category_ = category;
    if (perfctr::CollectionActive()) {
      start_sample_ = perfctr::ReadThreadCounters();
    }
    start_ns_ = NowNs();
  }
  ~ScopedSpan() {
    blackbox::Record(blackbox::EventKind::kSpanEnd, name_);
    if (!active_) return;
    const std::uint64_t end_ns = NowNs();
    if (start_sample_.valid) {
      Tracer::Get().Emit(
          category_, name_, start_ns_, end_ns,
          CounterTraceArgs(perfctr::ComputeDelta(
              start_sample_, perfctr::ReadThreadCounters())));
    } else {
      Tracer::Get().Emit(category_, name_, start_ns_, end_ns);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  const char* category_ = nullptr;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  perfctr::Sample start_sample_;
};

}  // namespace cgdnn::trace

#if CGDNN_TRACE_ENABLED
#define CGDNN_TRACE_CONCAT_IMPL(a, b) a##b
#define CGDNN_TRACE_CONCAT(a, b) CGDNN_TRACE_CONCAT_IMPL(a, b)
/// Records the enclosing scope as a span on the calling thread's timeline.
#define TRACE_SCOPE(category, name)                                   \
  ::cgdnn::trace::ScopedSpan CGDNN_TRACE_CONCAT(cgdnn_trace_span_,    \
                                                __COUNTER__)(category, name)
#else
#define TRACE_SCOPE(category, name) \
  do {                              \
  } while (false)
#endif
