// Packed, register-tiled GEMM engine (BLIS-style, docs/perf.md).
//
// Large shapes take the packed path: panels of op(A) (MC x KC, alpha folded
// in) and op(B) (KC x NC) are packed into 64-byte-aligned per-thread scratch
// — the pack routines absorb all four transpose combinations, so there is
// exactly ONE inner kernel per ISA, picked once per process
// (kernels::WithActiveTile). The microkernel accumulates an MR x NR
// register tile over a KC panel with a branch-free loop (`omp simd` on the
// baseline, FMA intrinsics in the AVX2/AVX-512 tiles); beta is folded into
// the tile store of the first KC panel, so no separate sweep over C
// remains. Edge tiles are zero-padded during packing, keeping the kernel
// free of remainder branches.
//
// Small shapes (op(B) volume under kGemmPackMinWork) skip packing and run
// branch-free naive loop nests: for LeNet-sized layers the pack traffic
// would dominate the O(mnk) work. Both paths accumulate each C element in
// ascending-k order with per-element chains, so results are independent of
// how callers partition rows — the bit-identity the coarse-grain
// inner-product path relies on (and FLOP counts/timings are value-
// independent: there are no data-dependent skips anywhere).
//
// The pack routines, microkernel, blocking nest and small-path row kernels
// live in gemm_kernels.hpp so the planner's direct-convolution path can run
// the very same kernel symbols on implicitly-gathered im2col data (the
// bit-identity contract between conv strategies).
#include <algorithm>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/gemm_kernels.hpp"
#include "cgdnn/core/arena.hpp"

namespace cgdnn::blas {

namespace kernels {
ThreadArena& PackArena() {
  static thread_local ThreadArena arena;
  return arena;
}
}  // namespace kernels

namespace {

using kernels::AxpyRowKernel;
using kernels::DotRowKernel;
using kernels::ScaleC;

template <typename Tile, typename Dtype = typename Tile::Scalar>
void PackedGemm(bool trans_a, bool trans_b, index_t m, index_t n, index_t k,
                Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
                Dtype* c) {
  const index_t lda = trans_a ? m : k;
  const index_t ldb = trans_b ? k : n;
  ThreadArena& arena = kernels::PackArena();
  arena.ResetScope();
  const kernels::PackBuffers<Tile> packs(arena);
  kernels::PackedGemmLoop<Tile>(
      m, n, k, beta, c, n,
      [&](index_t i0, index_t p0, index_t mc, index_t kc, Dtype* pack) {
        kernels::PackASlab<Tile>(trans_a, a, lda, i0, p0, mc, kc, alpha,
                                 pack);
      },
      [&](index_t p0, index_t j0, index_t kc, index_t nc, Dtype* pack) {
        kernels::PackBSlab<Tile>(trans_b, b, ldb, p0, j0, kc, nc, pack);
      },
      packs);
}

// ---- small path ------------------------------------------------------------
//
// Branch-free naive loop nests (the pre-packing kernels, minus their
// value-dependent zero skips), run after ScaleC. Loop orders keep the
// innermost loop over contiguous C and, when possible, contiguous A/B;
// K-blocking keeps the NN working set inside L1/L2. The row-level work runs
// through the shared AxpyRowKernel / DotRowKernel symbols (bit-identity with
// the direct-conv small path).

template <typename Dtype>
void SmallGemmNN(index_t m, index_t n, index_t k, Dtype alpha, const Dtype* a,
                 const Dtype* b, Dtype* c) {
  for (index_t k0 = 0; k0 < k; k0 += kernels::kSmallGemmBlockK) {
    const index_t k1 = std::min(k0 + kernels::kSmallGemmBlockK, k);
    for (index_t i = 0; i < m; ++i) {
      Dtype* ci = c + i * n;
      for (index_t kk = k0; kk < k1; ++kk) {
        AxpyRowKernel(n, alpha * a[i * k + kk], b + kk * n, ci);
      }
    }
  }
}

template <typename Dtype>
void SmallGemmNT(index_t m, index_t n, index_t k, Dtype alpha, const Dtype* a,
                 const Dtype* b, Dtype* c) {
  for (index_t i = 0; i < m; ++i) {
    const Dtype* ai = a + i * k;
    Dtype* ci = c + i * n;
    for (index_t j = 0; j < n; ++j) {
      ci[j] += alpha * DotRowKernel(k, ai, b + j * k);
    }
  }
}

template <typename Dtype>
void SmallGemmTN(index_t m, index_t n, index_t k, Dtype alpha, const Dtype* a,
                 const Dtype* b, Dtype* c) {
  // op(A)(i,kk) = a[kk*m + i]
  for (index_t kk = 0; kk < k; ++kk) {
    const Dtype* ak = a + kk * m;
    const Dtype* bk = b + kk * n;
    for (index_t i = 0; i < m; ++i) {
      AxpyRowKernel(n, alpha * ak[i], bk, c + i * n);
    }
  }
}

template <typename Dtype>
void SmallGemmTT(index_t m, index_t n, index_t k, Dtype alpha, const Dtype* a,
                 const Dtype* b, Dtype* c) {
  // op(A)(i,kk) = a[kk*m + i]; op(B)(kk,j) = b[j*k + kk]
  for (index_t i = 0; i < m; ++i) {
    Dtype* ci = c + i * n;
    for (index_t j = 0; j < n; ++j) {
      const Dtype* bj = b + j * k;
      Dtype sum = 0;
      for (index_t kk = 0; kk < k; ++kk) sum += a[kk * m + i] * bj[kk];
      ci[j] += alpha * sum;
    }
  }
}

}  // namespace

std::size_t gemm_pack_scratch_bytes() {
  return kernels::PackArena().capacity_bytes();
}

template <typename Dtype>
void gemm(Transpose trans_a, Transpose trans_b, index_t m, index_t n,
          index_t k, Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
          Dtype* c) {
  CGDNN_CHECK_GE(m, 0);
  CGDNN_CHECK_GE(n, 0);
  CGDNN_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == Dtype(0)) {
    ScaleC(m, n, beta, c);
    return;
  }
  const bool ta = trans_a == Transpose::kTrans;
  const bool tb = trans_b == Transpose::kTrans;
  const bool packed = kernels::WithActiveTile<Dtype>([&](auto tile) {
    using Tile = decltype(tile);
    if (!kernels::UsePackedPath<Tile>(n, k)) return false;
    PackedGemm<Tile>(ta, tb, m, n, k, alpha, a, b, beta, c);
    return true;
  });
  if (packed) return;
  ScaleC(m, n, beta, c);
  if (!ta && !tb) {
    SmallGemmNN(m, n, k, alpha, a, b, c);
  } else if (!ta && tb) {
    SmallGemmNT(m, n, k, alpha, a, b, c);
  } else if (ta && !tb) {
    SmallGemmTN(m, n, k, alpha, a, b, c);
  } else {
    SmallGemmTT(m, n, k, alpha, a, b, c);
  }
}

template <typename Dtype>
GemmTileShape ActiveGemmTile() {
  return kernels::WithActiveTile<Dtype>([](auto tile) {
    using Tile = decltype(tile);
    return GemmTileShape{Tile::kMR, Tile::kNR};
  });
}

template <typename Dtype>
void gemv(Transpose trans_a, index_t m, index_t n, Dtype alpha,
          const Dtype* a, const Dtype* x, Dtype beta, Dtype* y) {
  // A is m x n row-major; y has length m (no trans) or n (trans).
  const index_t ylen = trans_a == Transpose::kNo ? m : n;
  if (beta == Dtype(0)) {
    std::fill(y, y + ylen, Dtype(0));
  } else if (beta != Dtype(1)) {
    for (index_t i = 0; i < ylen; ++i) y[i] *= beta;
  }
  if (alpha == Dtype(0) || m == 0 || n == 0) return;
  if (trans_a == Transpose::kNo) {
    for (index_t i = 0; i < m; ++i) {
      y[i] += alpha * DotRowKernel(n, a + i * n, x);
    }
  } else {
    for (index_t i = 0; i < m; ++i) {
      // No zero-skip on x[i]: FLOP counts and timings must stay
      // input-independent (the paper's instrumentation assumption).
      AxpyRowKernel(n, alpha * x[i], a + i * n, y);
    }
  }
}

template <typename Dtype>
void ger(index_t m, index_t n, Dtype alpha, const Dtype* x, const Dtype* y,
         Dtype* a) {
  for (index_t i = 0; i < m; ++i) {
    // No zero-skip on x[i] — see gemv.
    AxpyRowKernel(n, alpha * x[i], y, a + i * n);
  }
}

#define CGDNN_INSTANTIATE_GEMM(Dtype)                                         \
  template void gemm<Dtype>(Transpose, Transpose, index_t, index_t, index_t, \
                            Dtype, const Dtype*, const Dtype*, Dtype,        \
                            Dtype*);                                         \
  template void gemv<Dtype>(Transpose, index_t, index_t, Dtype,              \
                            const Dtype*, const Dtype*, Dtype, Dtype*);      \
  template void ger<Dtype>(index_t, index_t, Dtype, const Dtype*,            \
                           const Dtype*, Dtype*);                            \
  template GemmTileShape ActiveGemmTile<Dtype>()

CGDNN_INSTANTIATE_GEMM(float);
CGDNN_INSTANTIATE_GEMM(double);

}  // namespace cgdnn::blas
