// cgdnn-check: shadow write-set recorder for the coarse-grain parallel
// regions (the runtime half of the parallel-discipline tooling; the static
// half is tools/lint_parallel.py).
//
// The paper's bit-identity claim rests on two invariants that plain testing
// only samples: (1) the batch/channel partition gives every thread a write
// set that is PAIRWISE DISJOINT from every other thread's on each shared
// blob, and (2) privatized gradients are merged only after the explicit
// barrier that ends the write phase, so the merge reads fully written
// private buffers. The checker records per-thread [begin, end) element
// intervals on each shared buffer during a region and verifies both
// invariants when the region joins, throwing cgdnn::Error naming the layer,
// the blob and the two offending thread ids on violation.
//
// Cost model: compiled behind the CGDNN_CHECK CMake option (on by default,
// defining CGDNN_CHECK_ENABLED=1) and runtime-gated by the CGDNN_CHECK=on
// environment variable. When the env switch is off the only cost is one
// null-pointer test per recording site; when compiled out, Enabled() is a
// constant false and every hook folds away.
//
// Threading contract: the checker object is created and destroyed in serial
// code (the region helper, parallel/region.hpp, owns one per region around
// the omp region). RecordWrite/EndWritePhase are called by the owning
// thread on its own slot only — no locks needed. BeginMerge reads other
// threads' phase flags, which are released by the barrier preceding every
// merge; a violation found inside the region is parked and re-thrown
// serially by Verify() so no exception crosses the parallel-region
// boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgdnn/core/common.hpp"
#include "cgdnn/core/thread_annotations.hpp"

#ifndef CGDNN_CHECK_ENABLED
#define CGDNN_CHECK_ENABLED 1
#endif

namespace cgdnn::check {

#if CGDNN_CHECK_ENABLED
/// True when write-set checking is armed for this process: the CGDNN_CHECK
/// environment variable is "on"/"1"/"true" (read once), or a ScopedEnable
/// override is live.
bool Enabled();
#else
constexpr bool Enabled() { return false; }
#endif

/// RAII override of the env switch, for tests: forces checking on (or off)
/// until destruction, then restores the previous state.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true);
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  int saved_;
};

/// One recorded write interval: elements [begin, end) of a buffer.
struct WriteInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

class WriteSetChecker {
 public:
  /// Serial, before the parallel region opens. `region` is the instrumented
  /// region's name ("<layer>.forward" / "<layer>.backward").
  WriteSetChecker(std::string region, int nthreads);
  /// Serial, after the region joins. Runs Verify() unless it already ran
  /// (or an exception is in flight).
  ~WriteSetChecker() noexcept(false);
  WriteSetChecker(const WriteSetChecker&) = delete;
  WriteSetChecker& operator=(const WriteSetChecker&) = delete;

  /// Called by thread `tid` (its own slot only): thread `tid` wrote
  /// elements [begin, end) of the shared buffer `base`, known to the layer
  /// as `blob` ("top.data", "bottom.diff", ...). Adjacent/overlapping
  /// intervals from the same thread coalesce on insertion, so recording
  /// per-sample slots of a static chunk stays O(1) amortized.
  void RecordWrite(int tid, const void* base, const char* blob,
                   std::int64_t begin, std::int64_t end);

  /// Called by thread `tid` when its write phase ends (the ThreadRegionScope
  /// destructor — i.e. right after the worksharing loop, before the barrier
  /// that precedes any merge).
  void EndWritePhase(int tid);

  /// Called by thread `tid` as it enters a gradient merge. Verifies every
  /// participating thread has ended its write phase — a thread that reaches
  /// the merge while another is still writing means the explicit barrier
  /// between the nowait loop and the merge is missing.
  void BeginMerge(int tid);

  /// Serial, after the region joins: asserts all threads' write sets are
  /// pairwise disjoint on every recorded buffer and re-throws any violation
  /// parked by BeginMerge. Throws cgdnn::Error naming the region, the blob
  /// and the two offending thread ids. Idempotent.
  void Verify();

  int nthreads() const { return nthreads_; }
  const std::string& region() const { return region_; }

  /// Process-wide "current region" pointer so call sites that cannot see
  /// the owning region helper (the merge kernels) can reach the checker.
  /// Set/cleared serially by the owner; regions do not nest.
  static WriteSetChecker* Current();

 private:
  friend class CurrentRegionBinding;

  // Recording is lock-free: each thread appends to its own slot only, and
  // the slots are merged by base pointer in the serial Verify().
  struct BufferWrites {
    const void* base = nullptr;
    const char* blob = "";
    // Sorted by construction for static chunks (ascending visit order);
    // Verify() sorts defensively before the sweep.
    std::vector<WriteInterval> intervals;
  };
  struct ThreadWrites {
    std::vector<BufferWrites> buffers;  // a handful per region: linear scan
  };

  std::string region_;
  int nthreads_;
  bool verified_ = false;
  std::vector<ThreadWrites> threads_;
  // Phase flags, one cache line apart would be overkill here: written once
  // per region by the owner thread, read by mergers after a barrier.
  std::vector<std::uint8_t> write_phase_done_;
  // First in-region violation (missing barrier), parked for Verify().
  // Every merging thread may report; Verify re-reads under the lock.
  Mutex merge_violation_mu_;
  std::string merge_violation_ CGDNN_GUARDED_BY(merge_violation_mu_);
};

/// Serial RAII binding of WriteSetChecker::Current() (used by the region
/// helper).
class CurrentRegionBinding {
 public:
  explicit CurrentRegionBinding(WriteSetChecker* checker);
  ~CurrentRegionBinding();
  CurrentRegionBinding(const CurrentRegionBinding&) = delete;
  CurrentRegionBinding& operator=(const CurrentRegionBinding&) = delete;

 private:
  WriteSetChecker* saved_;
};

}  // namespace cgdnn::check
