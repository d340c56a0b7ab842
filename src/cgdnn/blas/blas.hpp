// Native BLAS subset (the role OpenBLAS plays in the paper's Caffe setup).
//
// All matrices are row-major and densely packed (leading dimension equals
// the row length), which is the only case Caffe's math_functions need.
// Two execution modes are provided:
//   * the default serial kernels (used inside coarse-grain parallel regions,
//     where the batch loop supplies all thread-level parallelism), and
//   * `finegrain::*` OpenMP-parallel variants standing in for a threaded
//     OpenBLAS — the "BLAS-level parallelism" baseline of paper §3.1.1,
//     exercised by bench/abl_blas_vs_batch.
#pragma once

#include "cgdnn/core/common.hpp"
#include "cgdnn/core/gemm_isa.hpp"

namespace cgdnn::blas {

enum class Transpose { kNo, kTrans };

/// Cache-blocking parameters of the packed GEMM engine (docs/perf.md).
/// Panels of A (MC x KC) and B (KC x NC) are packed into contiguous
/// 64-byte-aligned per-thread scratch; the register tile (MR x NR) belongs
/// to the microkernel, whose ISA is chosen at run time (ActiveGemmTile).
/// Exposed so tests can sweep the edge cases (k around kKC) and so the
/// docs/bench shapes stay in sync.
template <typename Dtype>
struct GemmBlocking;

template <>
struct GemmBlocking<float> {
  static constexpr index_t kMC = 64, kKC = 256, kNC = 1024;
};

template <>
struct GemmBlocking<double> {
  static constexpr index_t kMC = 64, kKC = 256, kNC = 512;
};

/// The MR x NR register tile this process's microkernel runs for Dtype:
/// the active GEMM ISA's tile for float (core/gemm_isa.hpp), 4x4 for
/// double. Throws Error when CGDNN_ISA is invalid for this host.
template <typename Dtype>
GemmTileShape ActiveGemmTile();

/// Shapes below this op(B) volume (n * k element loads) skip packing and run
/// branch-free naive loop nests instead: for LeNet-sized layers the pack
/// traffic would dominate. The predicate deliberately ignores m so that a
/// row-partitioned GEMM (inner-product coarse-grain path) takes the same
/// branch — and therefore produces bit-identical rows — as the full-batch
/// serial call.
constexpr index_t kGemmPackMinWork = 4096;

/// Bytes of GEMM packing scratch currently reserved by the calling thread
/// (0 until this thread executes its first packed GEMM). One grow-only
/// arena per thread, reused across calls/layers/samples.
std::size_t gemm_pack_scratch_bytes();

/// C := alpha * op(A) * op(B) + beta * C
/// op(A) is M x K, op(B) is K x N, C is M x N; all row-major, packed.
template <typename Dtype>
void gemm(Transpose trans_a, Transpose trans_b, index_t m, index_t n,
          index_t k, Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
          Dtype* c);

/// y := alpha * op(A) * x + beta * y.  A is M x N row-major.
template <typename Dtype>
void gemv(Transpose trans_a, index_t m, index_t n, Dtype alpha,
          const Dtype* a, const Dtype* x, Dtype beta, Dtype* y);

/// Rank-1 update: A := alpha * x * y^T + A.  A is M x N row-major.
template <typename Dtype>
void ger(index_t m, index_t n, Dtype alpha, const Dtype* x, const Dtype* y,
         Dtype* a);

// ----- level 1 ------------------------------------------------------------

template <typename Dtype>
void axpy(index_t n, Dtype alpha, const Dtype* x, Dtype* y);  // y += a*x

template <typename Dtype>
void axpby(index_t n, Dtype alpha, const Dtype* x, Dtype beta, Dtype* y);

template <typename Dtype>
void scal(index_t n, Dtype alpha, Dtype* x);

template <typename Dtype>
Dtype dot(index_t n, const Dtype* x, const Dtype* y);

template <typename Dtype>
Dtype asum(index_t n, const Dtype* x);

template <typename Dtype>
Dtype sumsq(index_t n, const Dtype* x);

template <typename Dtype>
void copy(index_t n, const Dtype* x, Dtype* y);

template <typename Dtype>
void set(index_t n, Dtype value, Dtype* y);

// ----- element-wise vector math (Caffe's caffe_add/sub/mul/...) ------------

template <typename Dtype>
void add(index_t n, const Dtype* a, const Dtype* b, Dtype* y);
template <typename Dtype>
void sub(index_t n, const Dtype* a, const Dtype* b, Dtype* y);
template <typename Dtype>
void mul(index_t n, const Dtype* a, const Dtype* b, Dtype* y);
template <typename Dtype>
void div(index_t n, const Dtype* a, const Dtype* b, Dtype* y);
template <typename Dtype>
void add_scalar(index_t n, Dtype alpha, Dtype* y);
template <typename Dtype>
void sqr(index_t n, const Dtype* a, Dtype* y);
template <typename Dtype>
void sqrt(index_t n, const Dtype* a, Dtype* y);
template <typename Dtype>
void exp(index_t n, const Dtype* a, Dtype* y);
template <typename Dtype>
void log(index_t n, const Dtype* a, Dtype* y);
template <typename Dtype>
void abs(index_t n, const Dtype* a, Dtype* y);
template <typename Dtype>
void powx(index_t n, const Dtype* a, Dtype b, Dtype* y);

/// y[i] := sign(x[i]) in {-1, 0, +1} (used for L1 regularization).
template <typename Dtype>
void sign(index_t n, const Dtype* x, Dtype* y);

// ----- fine-grain (OpenMP-parallel) variants --------------------------------

namespace finegrain {
/// Number of threads the fine-grain kernels may use (default: OpenMP max).
void set_num_threads(int n);
int num_threads();

template <typename Dtype>
void gemm(Transpose trans_a, Transpose trans_b, index_t m, index_t n,
          index_t k, Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
          Dtype* c);

template <typename Dtype>
void axpy(index_t n, Dtype alpha, const Dtype* x, Dtype* y);
}  // namespace finegrain

}  // namespace cgdnn::blas
