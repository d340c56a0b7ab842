// Loop coalescing support (Algorithm 4, lines 4-9 of the paper).
//
// The coarse-grain transformation collapses the leading k loops of a layer's
// (S, D1, ..., DN) nest into a single loop over `civ` in [0, S*D1*...*Dk),
// then recovers the original indices with the mixed-radix decode functions
// f_s, f_1, ..., f_k. Coalescing keeps the parallelism at batch level while
// shrinking the minimal work unit, which is what makes OpenMP's static
// scheduling balance well when S is small relative to the thread count.
#pragma once

#include <array>
#include <initializer_list>

#include "cgdnn/core/common.hpp"

namespace cgdnn::parallel {

/// A collapsed iteration space over up to kMaxDims leading loop dimensions.
/// The first dimension varies slowest (matching the original loop nest
/// order, so the decode preserves the sequential iteration order).
class CoalescedRange {
 public:
  static constexpr int kMaxDims = 6;

  CoalescedRange(std::initializer_list<index_t> dims) {
    CGDNN_CHECK_LE(dims.size(), static_cast<std::size_t>(kMaxDims));
    CGDNN_CHECK_GT(dims.size(), 0u);
    ndims_ = static_cast<int>(dims.size());
    int i = 0;
    total_ = 1;
    for (index_t d : dims) {
      CGDNN_CHECK_GE(d, 0);
      dims_[i++] = d;
      total_ *= d;
    }
  }

  index_t total() const { return total_; }
  int ndims() const { return ndims_; }
  index_t dim(int i) const { return dims_[i]; }

  /// Recovers the loop indices for collapsed induction variable `civ`:
  /// idx[0] = f_s(civ), idx[1] = f_1(civ), ...
  void Decode(index_t civ, index_t* idx) const {
    for (int i = ndims_ - 1; i > 0; --i) {
      idx[i] = civ % dims_[i];
      civ /= dims_[i];
    }
    idx[0] = civ;
  }

  std::array<index_t, kMaxDims> Decode(index_t civ) const {
    std::array<index_t, kMaxDims> idx{};
    Decode(civ, idx.data());
    return idx;
  }

 private:
  std::array<index_t, kMaxDims> dims_{};
  int ndims_ = 0;
  index_t total_ = 0;
};

/// The iteration sub-range OpenMP static scheduling (no chunk argument)
/// assigns to thread `tid` of `nthreads`: contiguous blocks, the first
/// `total % nthreads` threads receiving one extra iteration. Exposed so
/// benches and tests can reason about the exact distribution.
struct IterRange {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const { return end - begin; }
};

inline IterRange StaticChunk(index_t total, int nthreads, int tid) {
  CGDNN_CHECK_GT(nthreads, 0);
  CGDNN_CHECK_GE(tid, 0);
  CGDNN_CHECK_LT(tid, nthreads);
  const index_t base = total / nthreads;
  const index_t rem = total % nthreads;
  const index_t begin = tid * base + (tid < rem ? tid : rem);
  const index_t size = base + (tid < rem ? 1 : 0);
  return {begin, begin + size};
}

}  // namespace cgdnn::parallel
