// Shared GEMM kernel primitives (register tiles, pack routines, blocking
// nest, small-path row kernels) factored out of gemm.cpp so the
// direct-convolution path can reuse them.
//
// Bit-identity contract: the planner may switch a conv layer between
// im2col-GEMM and direct (implicit-im2col) execution, and the two must
// produce byte-identical outputs. That holds because both paths funnel every
// floating-point accumulation through the SAME kernel symbols defined here —
// the packed path through the active tile's Kernel on identically-valued
// pack buffers, the small path through AxpyRowKernel / DotRowKernel in the
// same per-element ascending-k order. Which tile is active is fixed once per
// process (WithActiveTile, core/gemm_isa.hpp), so the contract holds per
// ISA. The reduction-order-sensitive kernels are out-of-line (noinline, or
// defined in microkernels_x86.cpp): one definition per tile, so the
// vectorizer cannot specialize the reduction tree differently per call site.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/arena.hpp"
#include "cgdnn/core/gemm_isa.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define CGDNN_KERNEL_NOINLINE __attribute__((noinline))
#else
#define CGDNN_KERNEL_NOINLINE
#endif

namespace cgdnn::blas::kernels {

constexpr index_t RoundUpTo(index_t v, index_t to) {
  return (v + to - 1) / to * to;
}

/// One grow-only pack arena per OS thread, shared by the packed GEMM and the
/// direct-conv path (defined in gemm.cpp). A single allocation on the
/// thread's first packed call, then reused across calls, layers and samples.
ThreadArena& PackArena();

/// Small-path K blocking (keeps the NN working set inside L1/L2).
constexpr index_t kSmallGemmBlockK = 256;

template <typename Dtype>
void ScaleC(index_t m, index_t n, Dtype beta, Dtype* c) {
  const index_t total = m * n;
  if (beta == Dtype(0)) {
    std::fill(c, c + total, Dtype(0));
  } else if (beta != Dtype(1)) {
    for (index_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

// ---- register tiles --------------------------------------------------------
//
// A tile names its scalar type, its MR x NR shape and its Kernel:
//   Kernel(kc, ap, bp, c, ldc, mr, nr, beta)
// accumulates op(A)op(B) over one KC panel into an MR x NR register tile,
// then merges the tile into C. `beta` applies to the destination exactly
// once per (jc, C-tile) — the caller passes the user's beta for the first
// KC panel and 1 afterwards. The kk loop is branch-free; edge handling
// happens only in the store, on zero-padded tiles, with the same
// arithmetic as a full tile, so a row-partitioned call (different edge
// tiles) produces the same bits as the full call.

/// The portable `omp simd` tile, compiled for the build's own target
/// (baseline x86-64: SSE2, no FMA). The float baseline and every double
/// GEMM run it.
template <typename Dtype, index_t MR, index_t NR>
struct PortableTile {
  using Scalar = Dtype;
  static constexpr index_t kMR = MR, kNR = NR;

  CGDNN_KERNEL_NOINLINE static void Kernel(index_t kc,
                                           const Dtype* __restrict ap,
                                           const Dtype* __restrict bp,
                                           Dtype* __restrict c, index_t ldc,
                                           index_t mr, index_t nr,
                                           Dtype beta) {
    Dtype acc[MR * NR] = {};
    for (index_t kk = 0; kk < kc; ++kk) {
      const Dtype* a = ap + kk * MR;
      const Dtype* b = bp + kk * NR;
      for (index_t i = 0; i < MR; ++i) {
        const Dtype ai = a[i];
#pragma omp simd
        for (index_t j = 0; j < NR; ++j) acc[i * NR + j] += ai * b[j];
      }
    }
    if (mr == MR && nr == NR) {
      if (beta == Dtype(1)) {
        for (index_t i = 0; i < MR; ++i) {
          Dtype* ci = c + i * ldc;
#pragma omp simd
          for (index_t j = 0; j < NR; ++j) ci[j] += acc[i * NR + j];
        }
      } else if (beta == Dtype(0)) {
        for (index_t i = 0; i < MR; ++i) {
          Dtype* ci = c + i * ldc;
#pragma omp simd
          for (index_t j = 0; j < NR; ++j) ci[j] = acc[i * NR + j];
        }
      } else {
        for (index_t i = 0; i < MR; ++i) {
          Dtype* ci = c + i * ldc;
#pragma omp simd
          for (index_t j = 0; j < NR; ++j) {
            ci[j] = beta * ci[j] + acc[i * NR + j];
          }
        }
      }
    } else {
      for (index_t i = 0; i < mr; ++i) {
        Dtype* ci = c + i * ldc;
        for (index_t j = 0; j < nr; ++j) {
          if (beta == Dtype(1)) {
            ci[j] += acc[i * NR + j];
          } else if (beta == Dtype(0)) {
            ci[j] = acc[i * NR + j];
          } else {
            ci[j] = beta * ci[j] + acc[i * NR + j];
          }
        }
      }
    }
  }
};

using BaselineFloatTile =
    PortableTile<float, FloatGemmTile(GemmIsa::kBaseline).mr,
                 FloatGemmTile(GemmIsa::kBaseline).nr>;
using DoubleTile = PortableTile<double, 4, 4>;

#if CGDNN_GEMM_ISA_X86
/// AVX2+FMA float tile: 6 rows x 2 ymm (12 accumulators). Kernel is
/// defined in microkernels_x86.cpp under target("avx2,fma").
struct Avx2FloatTile {
  using Scalar = float;
  static constexpr index_t kMR = FloatGemmTile(GemmIsa::kAvx2).mr;
  static constexpr index_t kNR = FloatGemmTile(GemmIsa::kAvx2).nr;
  static void Kernel(index_t kc, const float* ap, const float* bp, float* c,
                     index_t ldc, index_t mr, index_t nr, float beta);
};

/// AVX-512F float tile: 8 rows x 2 zmm (16 accumulators). Kernel is
/// defined in microkernels_x86.cpp under target("avx512f").
struct Avx512FloatTile {
  using Scalar = float;
  static constexpr index_t kMR = FloatGemmTile(GemmIsa::kAvx512).mr;
  static constexpr index_t kNR = FloatGemmTile(GemmIsa::kAvx512).nr;
  static void Kernel(index_t kc, const float* ap, const float* bp, float* c,
                     index_t ldc, index_t mr, index_t nr, float beta);
};
#endif

/// Calls fn(Tile{}) with the tile this process runs for Dtype: the active
/// GEMM ISA's tile for float, DoubleTile for double. Every packed entry
/// point (gemm, DirectConvForward, DirectConvBackwardWeights) switches here
/// once, at entry, so all of a process's call sites share one kernel.
template <typename Dtype, typename Fn>
decltype(auto) WithActiveTile(Fn&& fn) {
  if constexpr (std::is_same_v<Dtype, float>) {
    switch (ActiveGemmIsa()) {
#if CGDNN_GEMM_ISA_X86
      case GemmIsa::kAvx512: return fn(Avx512FloatTile{});
      case GemmIsa::kAvx2: return fn(Avx2FloatTile{});
#endif
      default: return fn(BaselineFloatTile{});
    }
  } else {
    return fn(DoubleTile{});
  }
}

/// m is deliberately not consulted: a row-partitioned call must take the
/// same branch as the full-batch call (see kGemmPackMinWork). The planner's
/// direct-conv path consults the same predicate so strategy switches never
/// change which kernel family runs for a given (n, k).
template <typename Tile>
bool UsePackedPath(index_t n, index_t k) {
  return n >= Tile::kNR && n * k >= kGemmPackMinWork;
}

// ---- packed-path primitives ------------------------------------------------

/// The two pack buffers PackedGemmLoop<Tile> needs: RoundUpTo(MC,MR)*KC
/// and RoundUpTo(NC,NR)*KC elements, carved from `arena`.
template <typename Tile>
struct PackBuffers {
  using Dtype = typename Tile::Scalar;
  using B = GemmBlocking<Dtype>;
  explicit PackBuffers(ThreadArena& arena)
      : a(Alloc(arena, RoundUpTo(B::kMC, Tile::kMR))),
        b(Alloc(arena, RoundUpTo(B::kNC, Tile::kNR))) {}
  Dtype* a;
  Dtype* b;

 private:
  static Dtype* Alloc(ThreadArena& arena, index_t panel_elems) {
    return static_cast<Dtype*>(arena.Allocate(
        static_cast<std::size_t>(panel_elems * B::kKC) * sizeof(Dtype)));
  }
};

/// Packs the mc x kc slab of op(A) starting at (row i0, depth p0) into
/// MR-wide row panels: panel p holds rows [p*MR, p*MR+MR), laid out kk-major
/// with MR contiguous values per kk. alpha is folded in here; rows past mc
/// are zero-padded so the microkernel never branches on the row remainder.
template <typename Tile, typename Dtype = typename Tile::Scalar>
void PackASlab(bool trans, const Dtype* a, index_t lda, index_t i0,
               index_t p0, index_t mc, index_t kc, Dtype alpha, Dtype* pack) {
  constexpr index_t MR = Tile::kMR;
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    for (index_t kk = 0; kk < kc; ++kk) {
      if (trans) {
        // op(A)(i, kk) = a[kk * lda + i]
        const Dtype* src = a + (p0 + kk) * lda + i0 + ir;
        for (index_t i = 0; i < mr; ++i) pack[i] = alpha * src[i];
      } else {
        // op(A)(i, kk) = a[i * lda + kk]
        const Dtype* src = a + (i0 + ir) * lda + p0 + kk;
        for (index_t i = 0; i < mr; ++i) pack[i] = alpha * src[i * lda];
      }
      for (index_t i = mr; i < MR; ++i) pack[i] = Dtype(0);
      pack += MR;
    }
  }
}

/// Packs the kc x nc slab of op(B) starting at (depth p0, col j0) into
/// NR-wide column panels (kk-major, NR contiguous values per kk), columns
/// past nc zero-padded.
template <typename Tile, typename Dtype = typename Tile::Scalar>
void PackBSlab(bool trans, const Dtype* b, index_t ldb, index_t p0,
               index_t j0, index_t kc, index_t nc, Dtype* pack) {
  constexpr index_t NR = Tile::kNR;
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr = std::min(NR, nc - jr);
    for (index_t kk = 0; kk < kc; ++kk) {
      if (trans) {
        // op(B)(kk, j) = b[j * ldb + kk]
        const Dtype* src = b + (j0 + jr) * ldb + p0 + kk;
        for (index_t j = 0; j < nr; ++j) pack[j] = src[j * ldb];
      } else {
        // op(B)(kk, j) = b[kk * ldb + j]
        const Dtype* src = b + (p0 + kk) * ldb + j0 + jr;
        for (index_t j = 0; j < nr; ++j) pack[j] = src[j];
      }
      for (index_t j = nr; j < NR; ++j) pack[j] = Dtype(0);
      pack += NR;
    }
  }
}

/// The jc/pc/ic/jr/ir blocking nest of the packed path, with the two pack
/// steps supplied by the caller. The GEMM front-end passes PackASlab /
/// PackBSlab over row-major matrices; the direct-conv path passes packers
/// that gather op(B) straight from the input image (implicit im2col). Both
/// produce identically-valued pack buffers, so the Tile::Kernel sequence —
/// and therefore every FP operation — is the same.
///
/// PackA(i0, p0, mc, kc, dst) packs the op(A) slab (alpha folded in);
/// PackB(p0, j0, kc, nc, dst) packs the op(B) slab into the Tile's panels.
template <typename Tile, typename PackA, typename PackB,
          typename Dtype = typename Tile::Scalar>
void PackedGemmLoop(index_t m, index_t n, index_t k, Dtype beta, Dtype* c,
                    index_t ldc, PackA&& pack_a, PackB&& pack_b,
                    const PackBuffers<Tile>& packs) {
  using B = GemmBlocking<Dtype>;
  for (index_t jc = 0; jc < n; jc += B::kNC) {
    const index_t nc = std::min(B::kNC, n - jc);
    for (index_t pc = 0; pc < k; pc += B::kKC) {
      const index_t kc = std::min(B::kKC, k - pc);
      const Dtype beta_panel = pc == 0 ? beta : Dtype(1);
      pack_b(pc, jc, kc, nc, packs.b);
      for (index_t ic = 0; ic < m; ic += B::kMC) {
        const index_t mc = std::min(B::kMC, m - ic);
        pack_a(ic, pc, mc, kc, packs.a);
        for (index_t jr = 0; jr < nc; jr += Tile::kNR) {
          const index_t nr = std::min(Tile::kNR, nc - jr);
          for (index_t ir = 0; ir < mc; ir += Tile::kMR) {
            const index_t mr = std::min(Tile::kMR, mc - ir);
            Tile::Kernel(kc, packs.a + ir * kc, packs.b + jr * kc,
                         c + (ic + ir) * ldc + jc + jr, ldc, mr, nr,
                         beta_panel);
          }
        }
      }
    }
  }
}

// ---- small-path row primitives ---------------------------------------------

/// y[0..n) += a * x[0..n). Per-element chains — no reduction — but kept
/// out-of-line anyway so every caller runs the identical vectorized body.
template <typename Dtype>
CGDNN_KERNEL_NOINLINE void AxpyRowKernel(index_t n, Dtype a,
                                         const Dtype* __restrict x,
                                         Dtype* __restrict y) {
#pragma omp simd
  for (index_t j = 0; j < n; ++j) y[j] += a * x[j];
}

/// sum over x[0..k) * y[0..k). The `omp simd` reduction tree depends on the
/// vector factor the compiler picks — noinline pins ONE definition per type
/// so im2col-GEMM and direct conv reduce in exactly the same order.
template <typename Dtype>
CGDNN_KERNEL_NOINLINE Dtype DotRowKernel(index_t k, const Dtype* __restrict x,
                                         const Dtype* __restrict y) {
  Dtype sum = 0;
#pragma omp simd reduction(+ : sum)
  for (index_t kk = 0; kk < k; ++kk) sum += x[kk] * y[kk];
  return sum;
}

}  // namespace cgdnn::blas::kernels
