// cgdnn_blackbox: always-on flight recorder, crash forensics, hang watchdog.
//
// Unlike the span tracer (opt-in, flush-on-exit), the recorder is ON by
// default and is built to survive the very failures that destroy flushed
// evidence: a SIGSEGV mid-region, a deadlocked merge, a diverging solver.
//
// Design:
//  * Each thread owns a lock-free SPSC ring of fixed-size 32-byte events
//    (producer: the owning thread; consumer: the crash handler / watchdog,
//    which only ever *read*). Event words are relaxed atomics; the head
//    counter is published with release semantics so a reader acquiring the
//    head sees fully written events. Overwrite-oldest: the ring always
//    holds the most recent N events per thread.
//  * Event payload is compact and static: a timestamp from the shared
//    monotonic epoch (cgdnn::MonotonicNowNs — same clock as the tracer, so
//    decoded dumps merge with Chrome traces on one timeline), a kind, the
//    recording thread, an interned name id and two 64-bit args.
//  * Crash path is async-signal-safe: handlers for SIGSEGV/SIGBUS/SIGFPE/
//    SIGABRT walk preallocated static tables (ring registry, name table,
//    prebuilt meta JSON) and emit `blackbox-<pid>.bin` with write(2) only.
//    No malloc, no locks, no iostreams in that path.
//  * The watchdog is fed by per-thread position stacks ("thread T is inside
//    region R since t") — it trips only on *open* work older than the
//    deadline, never on an idle process.
//
// Compile-out: -DCGDNN_BLACKBOX=OFF (CMake) turns every entry point into an
// inline no-op so benches can measure the recorder's cost. Runtime kill
// switch: CGDNN_BLACKBOX=off in the environment.
//
// Decoder: tools/cgdnn_blackbox (timeline + Chrome-trace JSON). Format
// documented in dump_format.hpp.
#pragma once

#include <cstdint>
#include <string>

#ifndef CGDNN_BLACKBOX_ENABLED
#define CGDNN_BLACKBOX_ENABLED 1
#endif

namespace cgdnn::blackbox {

/// Event kinds. Stable numbering: the decoder and dump format depend on it;
/// append only. Keep in sync with KindName() and tools/cgdnn_blackbox.
enum class EventKind : std::uint16_t {
  kSpanBegin = 1,        ///< TRACE_SCOPE entry: a=0, b=0
  kSpanEnd = 2,          ///< TRACE_SCOPE exit
  // Region begin/end (a=threads) are no longer emitted — a region reports
  // into its layer phase — and stay so older dumps decode.
  kRegionBegin = 3,
  kRegionEnd = 4,
  kChunkBegin = 5,       ///< per-thread chunk of a region, a=omp tid
  kChunkEnd = 6,         ///< per-thread chunk done, a=omp tid
  kMergeBegin = 7,       ///< reduction/merge phase entry, a=mode
  kMergeEnd = 8,         ///< reduction/merge phase exit, a=mode
  kSolverIterBegin = 9,  ///< a=iteration
  kSolverIterEnd = 10,   ///< a=iteration, b=bit_cast<u64>(double loss)
  kCheckpointBegin = 11, ///< a=iteration
  kCheckpointEnd = 12,   ///< a=iteration, b=bytes written
  kViolation = 13,       ///< write-set checker violation, a=kind detail
  kLayerBegin = 14,      ///< layer phase begin, name "<layer>.<phase>",
                         ///< a=phase (0 forward, 1 backward)
  kLayerEnd = 15,        ///< layer phase end, a=phase
  kMax = 16,
};

const char* KindName(EventKind kind);

/// Why a dump was written (header field; decoder prints it).
enum class DumpReason : std::uint32_t {
  kManual = 0,    ///< DumpNow() from tooling / tests
  kSignal = 1,    ///< fatal signal (crash tid + signo recorded)
  kWatchdog = 2,  ///< hang watchdog deadline exceeded
  kGuard = 3,     ///< non-finite-loss guard (solver divergence)
};

#if CGDNN_BLACKBOX_ENABLED

/// True when the recorder is armed (built in and not disabled via the
/// CGDNN_BLACKBOX=off environment variable). Cheap: one relaxed load.
bool Enabled();

/// Record one event into the calling thread's ring. `name` is interned by
/// content: its first 63 characters are copied into the recorder's name
/// table on first use, so any NUL-terminated string works and need only
/// live for the call (names sharing a 63-character prefix share one entry).
/// No-op (one branch) when disabled.
void Record(EventKind kind, const char* name, std::uint64_t a = 0,
            std::uint64_t b = 0);

/// Paired position tracking for the watchdog: "this thread is inside
/// `name` since now". Push on entry, pop on exit. Also records the
/// corresponding begin/end event. Depth is capped (kMaxDepth); deeper
/// nesting records events but is invisible to the watchdog.
void PushPosition(EventKind begin_kind, const char* name, std::uint64_t a = 0,
                  std::uint64_t b = 0);
void PopPosition(EventKind end_kind, const char* name, std::uint64_t a = 0,
                 std::uint64_t b = 0);

/// RAII wrapper for PushPosition/PopPosition.
class ScopedPosition {
 public:
  ScopedPosition(EventKind begin_kind, EventKind end_kind, const char* name,
                 std::uint64_t a = 0)
      : end_kind_(end_kind), name_(name), a_(a) {
    PushPosition(begin_kind, name, a);
  }
  ~ScopedPosition() { PopPosition(end_kind_, name_, a_); }
  ScopedPosition(const ScopedPosition&) = delete;
  ScopedPosition& operator=(const ScopedPosition&) = delete;

 private:
  EventKind end_kind_;
  const char* name_;
  std::uint64_t a_;
};

/// Solver heartbeat: mark the start/end of iteration `iter`. Feeds the
/// watchdog's "solver iteration stalled" detection and the crash dump's
/// "last solver iteration" header field.
void BeginSolverIteration(std::uint64_t iter);
void EndSolverIteration(std::uint64_t iter, double loss);

/// Install the fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/SIGABRT) and
/// set the dump path (directory or full path; empty = "blackbox-<pid>.bin"
/// in the CWD). Idempotent; later calls just update the path.
void InstallCrashHandlers(const std::string& dump_path = "");

/// Synchronous dump from regular (non-signal) code — the non-finite-loss
/// guard and the watchdog use this. First dump wins; later calls are no-ops
/// (returns false). Safe to call from any thread.
bool DumpNow(DumpReason reason);

/// Path the next dump will be written to.
std::string DumpPath();

// --- Watchdog -------------------------------------------------------------

struct WatchdogOptions {
  /// Deadline in nanoseconds: an open position or solver iteration older
  /// than this trips the watchdog.
  std::uint64_t deadline_ns = 0;
  /// Abort the process after dumping (production default). Tests set
  /// false and use on_stall to observe the trip.
  bool abort_on_stall = true;
  /// Test hook: called (from the watchdog thread) with a description of
  /// the stalled site before dump/abort. May be null.
  void (*on_stall)(const char* site, std::uint64_t age_ns) = nullptr;
};

/// Start the watchdog thread. No-op if already running or deadline_ns == 0.
void StartWatchdog(const WatchdogOptions& options);

/// Stop and join the watchdog thread. Safe if not running.
void StopWatchdog();

// --- Test support ---------------------------------------------------------

/// Drop all rings/names/positions and re-arm (re-reading CGDNN_BLACKBOX*
/// environment). Threads re-register lazily on their next Record. Test-only:
/// must not race live producers.
void ResetForTest();

/// Ring capacity (events per thread) currently in effect.
std::uint64_t RingCapacityForTest();

#else  // !CGDNN_BLACKBOX_ENABLED

inline bool Enabled() { return false; }
inline void Record(EventKind, const char*, std::uint64_t = 0,
                   std::uint64_t = 0) {}
inline void PushPosition(EventKind, const char*, std::uint64_t = 0,
                         std::uint64_t = 0) {}
inline void PopPosition(EventKind, const char*, std::uint64_t = 0,
                        std::uint64_t = 0) {}
class ScopedPosition {
 public:
  ScopedPosition(EventKind, EventKind, const char*, std::uint64_t = 0) {}
};
inline void BeginSolverIteration(std::uint64_t) {}
inline void EndSolverIteration(std::uint64_t, double) {}
inline void InstallCrashHandlers(const std::string& = "") {}
inline bool DumpNow(DumpReason) { return false; }
inline std::string DumpPath() { return {}; }
struct WatchdogOptions {
  std::uint64_t deadline_ns = 0;
  bool abort_on_stall = true;
  void (*on_stall)(const char*, std::uint64_t) = nullptr;
};
inline void StartWatchdog(const WatchdogOptions&) {}
inline void StopWatchdog() {}
inline void ResetForTest() {}
inline std::uint64_t RingCapacityForTest() { return 0; }

#endif  // CGDNN_BLACKBOX_ENABLED

}  // namespace cgdnn::blackbox
