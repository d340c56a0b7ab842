// The one parallel-region helper every layer loop goes through (the
// coarse-grain transformation of Algorithms 4/5, applied uniformly).
//
// A layer hands the helper an iteration count and a body; the helper owns
// everything else the paper's transformation needs:
//
//   * the team size (Parallel::ResolveThreads) and the static partition —
//     thread `tid` runs the body once over StaticChunk(total, team, tid),
//     the exact iterations `#pragma omp for schedule(static)` would give it,
//     so sample-to-thread mapping and every private chunk sum are fixed;
//   * observability: the region reports into the layer phase open on the
//     calling thread (LayerPhaseScope::Current(), opened by
//     Layer::Forward/Backward), which also names it; each thread's chunk is
//     a ThreadRegionScope (trace span, busy time for the phase's imbalance
//     metric, flight-recorder position, write-phase end). A helper call
//     with no open phase throws cgdnn::Error;
//   * the write-set check: writes the body declares with Chunk::Wrote go to
//     the armed checker (a null test otherwise);
//   * for ForEachChunkPrivate, per-thread scratch and zero-filled private
//     reductions from the PrivatizationPool, the barrier, and the merge
//     with the configured GradientMerge (Algorithm 5, lines 3-5, 22-24);
//   * exception safety: a throwing body is captured per thread, every thread
//     still reaches the barrier, nobody merges, and after the join the
//     lowest tid's exception is rethrown as a cgdnn::Error — never
//     std::terminate.
//
// Coalescing stays the caller's choice of `total`: pass num*channels and
// decode, or pass num and loop over channels inside the body.
//
// Usage (layer code):
//   parallel::ForEachChunk(num_, [&](const parallel::Chunk& c) {
//     for (index_t n = c.begin; n < c.end; ++n) ForwardSample(n);
//     c.Wrote(top_data, "top.data", c.begin * dim, c.end * dim);
//   });
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <exception>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/parallel/coalesce.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/instrument.hpp"
#include "cgdnn/parallel/merge.hpp"
#include "cgdnn/parallel/privatizer.hpp"

namespace cgdnn::parallel {

/// One thread's share of a region: iterations [begin, end) of the region's
/// total, plus the hooks the body needs.
struct Chunk {
  int tid = 0;
  int team = 1;
  index_t begin = 0;
  index_t end = 0;
  check::WriteSetChecker* checker = nullptr;

  /// This thread's static share of a second extent, for regions that
  /// partition two loops (inner product backward: output rows for dW,
  /// samples for d_bottom).
  IterRange Share(index_t extent) const {
    return StaticChunk(extent, team, tid);
  }
  /// True when cgdnn-check is armed: bodies whose write sets are strided
  /// guard their declaration loops with it.
  bool checking() const { return checker != nullptr; }
  /// Declares that this chunk wrote elements [lo, hi) of the shared buffer
  /// `base` (known to the layer as `blob`).
  void Wrote(const void* base, const char* blob, index_t lo,
             index_t hi) const {
    if (checker != nullptr && hi > lo) {
      checker->RecordWrite(tid, base, blob, lo, hi);
    }
  }
};

/// One privatized reduction: each thread accumulates into a zero-filled
/// private copy of `count` elements, merged into `dest` after the barrier.
/// A null `dest` disables it (the body then sees a null private pointer).
template <typename Dtype>
struct PrivateSum {
  Dtype* dest = nullptr;
  index_t count = 0;
};

namespace detail {

inline std::exception_ptr FirstError(
    const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) return e;
  }
  return nullptr;
}

/// Serial, after the join: rethrows a captured body exception as a
/// cgdnn::Error (an Error passes through unchanged).
[[noreturn]] inline void RethrowAsError(const char* region,
                                        const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    throw Error(__FILE__, __LINE__,
                std::string("in region ") + region + ": " + e.what());
  } catch (...) {
    throw Error(__FILE__, __LINE__,
                std::string("in region ") + region +
                    ": non-standard exception");
  }
}

}  // namespace detail

/// Runs body(const Chunk&, Dtype* scratch, Dtype* const* priv) once on
/// every thread of the team, over StaticChunk(total, team, tid), with
/// per-thread private memory: `scratch_count` uninitialized elements
/// (nullptr when 0) and priv[k], a zero-filled private buffer for each
/// active sums[k]. After a barrier, every thread's priv[k] is folded into
/// sums[k].dest with the configured merge — unless any thread threw, in
/// which case no destination changes. Without scratch or active sums the
/// region touches no pool and has no barrier: the join is the only
/// synchronization.
template <typename Dtype, typename Body>
void ForEachChunkPrivate(index_t total, index_t scratch_count,
                         std::initializer_list<PrivateSum<Dtype>> sums,
                         Body&& body) {
  LayerPhaseScope* phase = LayerPhaseScope::Current();
  CGDNN_CHECK(phase != nullptr)
      << "parallel region outside a layer phase: open a "
         "parallel::LayerPhaseScope (Layer::Forward/Backward do)";
  const char* name = phase->name();
  constexpr std::size_t kMaxSums = 4;
  CGDNN_CHECK_LE(sums.size(), kMaxSums);
  std::array<PrivateSum<Dtype>, kMaxSums> red{};
  std::copy(sums.begin(), sums.end(), red.begin());
  const bool merging = std::any_of(
      red.begin(), red.end(),
      [](const PrivateSum<Dtype>& s) { return s.dest != nullptr; });
  const GradientMerge merge = Parallel::Config().merge;
  CGDNN_CHECK(!merging || merge != GradientMerge::kSerial)
      << "region " << name
      << ": the serial merge mode cannot fold privatized sums";

  const int nthreads = Parallel::ResolveThreads();
  const auto slots = static_cast<std::size_t>(nthreads);
  auto& pool = PrivatizationPool::Get();
  if (scratch_count > 0 || merging) {
    pool.Configure(nthreads);
    pool.BeginLayerScope();
  }
  // parts[k][tid]: the per-reduction arrays AccumulatePrivate folds.
  std::array<std::vector<Dtype*>, kMaxSums> parts;
  for (std::size_t k = 0; k < kMaxSums; ++k) {
    if (red[k].dest != nullptr) parts[k].assign(slots, nullptr);
  }
  std::vector<std::exception_ptr> errors(slots);
  phase->BeginTeam(nthreads);
  // The write-set checker is armed per region: two regions of one phase
  // may legitimately write the same elements.
  std::unique_ptr<check::WriteSetChecker> checker;
  std::optional<check::CurrentRegionBinding> binding;
  if (check::Enabled()) {
    checker = std::make_unique<check::WriteSetChecker>(name, nthreads);
    binding.emplace(checker.get());
  }
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    const int team = omp_get_num_threads();
    const auto t = static_cast<std::size_t>(tid);
    try {
      Dtype* scratch = scratch_count > 0
                           ? pool.Acquire<Dtype>(tid, scratch_count)
                           : nullptr;
      std::array<Dtype*, kMaxSums> priv{};
      for (std::size_t k = 0; k < kMaxSums; ++k) {
        if (red[k].dest == nullptr) continue;
        // Object privatization: zero is the reduction's neuter value.
        priv[k] = pool.Acquire<Dtype>(tid, red[k].count);
        std::fill_n(priv[k], red[k].count, Dtype(0));
        parts[k][t] = priv[k];
      }
      const IterRange r = StaticChunk(total, team, tid);
      const Chunk chunk{tid, team, r.begin, r.end, checker.get()};
      ThreadRegionScope scope(*phase, checker.get(), tid);
      body(chunk, scratch, priv.data());
    } catch (...) {
      errors[t] = std::current_exception();
    }
    if (merging) {
      // Every private sum is complete and visible past this point.
#pragma omp barrier
      if (!detail::FirstError(errors)) {
        for (std::size_t k = 0; k < kMaxSums; ++k) {
          if (red[k].dest == nullptr) continue;
          AccumulatePrivate(merge, parts[k].data(), team, red[k].dest,
                            red[k].count);
        }
      }
    }
  }
  // Unbind, then verify the write sets (that may throw) before any body
  // rethrow.
  binding.reset();
  if (checker) checker->Verify();
  if (std::exception_ptr e = detail::FirstError(errors)) {
    detail::RethrowAsError(name, e);
  }
}

/// The plain form: body(const Chunk&) over StaticChunk(total, team, tid),
/// nothing privatized.
template <typename Body>
void ForEachChunk(index_t total, Body&& body) {
  // Nothing is privatized, so the element type is immaterial.
  ForEachChunkPrivate<float>(
      total, 0, {},
      [&](const Chunk& c, float* /*scratch*/, float* const* /*priv*/) {
        body(c);
      });
}

/// Elementwise layers (whole-nest coalescing: (s, d1, ..., dN) collapse
/// into one loop): fn(i) for every i in [0, count), each chunk declaring
/// its contiguous writes [begin, end) to `written`.
template <typename Fn>
void ForEachElement(index_t count, const void* written, const char* blob,
                    Fn&& fn) {
  ForEachChunk(count, [&](const Chunk& c) {
    for (index_t i = c.begin; i < c.end; ++i) fn(i);
    c.Wrote(written, blob, c.begin, c.end);
  });
}

}  // namespace cgdnn::parallel
