// AVX2+FMA and AVX-512F float microkernels (tiles declared in
// gemm_kernels.hpp). Each kernel is compiled under its own per-function
// target attribute, so a baseline x86-64 build carries all of them;
// kernels::WithActiveTile only ever calls one the host supports.
//
// Both follow the portable tile's contract: per-element ascending-kk FMA
// chains over one KC panel, then one merge into C (beta == 1 adds,
// beta == 0 stores, otherwise fma(beta, c, acc)). Edge tiles go through
// a spill of the accumulators and masked loads/stores, but run the same
// merge instruction per element as a full tile — a row-partitioned call,
// whose edge tiles differ, produces the same bits.
#include "cgdnn/blas/gemm_kernels.hpp"

#if CGDNN_GEMM_ISA_X86

#include <immintrin.h>

#define CGDNN_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define CGDNN_TARGET_AVX512 __attribute__((target("avx512f")))

namespace cgdnn::blas::kernels {

namespace {

// ---- AVX2 + FMA: 6 x 16, 12 ymm accumulators -------------------------------

CGDNN_TARGET_AVX2 inline __m256 MergeAvx2(float beta, __m256 cv, __m256 acc) {
  if (beta == 1.0f) return _mm256_add_ps(cv, acc);
  if (beta == 0.0f) return acc;
  return _mm256_fmadd_ps(_mm256_set1_ps(beta), cv, acc);
}

// ---- AVX-512F: 8 x 32, 16 zmm accumulators ---------------------------------

CGDNN_TARGET_AVX512 inline __m512 MergeAvx512(float beta, __m512 cv,
                                              __m512 acc) {
  if (beta == 1.0f) return _mm512_add_ps(cv, acc);
  if (beta == 0.0f) return acc;
  return _mm512_fmadd_ps(_mm512_set1_ps(beta), cv, acc);
}

}  // namespace

CGDNN_TARGET_AVX2 void Avx2FloatTile::Kernel(index_t kc, const float* ap,
                                             const float* bp, float* c,
                                             index_t ldc, index_t mr,
                                             index_t nr, float beta) {
  constexpr int MR = static_cast<int>(kMR);
  constexpr int NR = static_cast<int>(kNR);
  constexpr int V = NR / 8;  // ymm vectors per tile row
  __m256 acc[MR][V];
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[i][v] = _mm256_setzero_ps();
  }
  for (index_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * MR;
    const float* b = bp + kk * NR;
    __m256 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(b + 8 * v);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      const __m256 ai = _mm256_broadcast_ss(a + i);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[i][v] = _mm256_fmadd_ps(ai, bv[v], acc[i][v]);
      }
    }
  }
  const bool load_c = beta != 0.0f;
  if (mr == kMR && nr == kNR) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        float* p = c + i * ldc + 8 * v;
        const __m256 cv = load_c ? _mm256_loadu_ps(p) : _mm256_setzero_ps();
        _mm256_storeu_ps(p, MergeAvx2(beta, cv, acc[i][v]));
      }
    }
    return;
  }
  alignas(32) float spill[MR * NR];
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      _mm256_store_ps(spill + i * NR + 8 * v, acc[i][v]);
    }
  }
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (index_t i = 0; i < mr; ++i) {
    for (int v = 0; v < V && 8 * v < nr; ++v) {
      const __m256i mask = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(nr) - 8 * v), lane);
      float* p = c + i * ldc + 8 * v;
      const __m256 cv =
          load_c ? _mm256_maskload_ps(p, mask) : _mm256_setzero_ps();
      _mm256_maskstore_ps(
          p, mask,
          MergeAvx2(beta, cv, _mm256_load_ps(spill + i * NR + 8 * v)));
    }
  }
}

CGDNN_TARGET_AVX512 void Avx512FloatTile::Kernel(index_t kc, const float* ap,
                                                 const float* bp, float* c,
                                                 index_t ldc, index_t mr,
                                                 index_t nr, float beta) {
  constexpr int MR = static_cast<int>(kMR);
  constexpr int NR = static_cast<int>(kNR);
  constexpr int V = NR / 16;  // zmm vectors per tile row
  __m512 acc[MR][V];
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[i][v] = _mm512_setzero_ps();
  }
  for (index_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * MR;
    const float* b = bp + kk * NR;
    __m512 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = _mm512_loadu_ps(b + 16 * v);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      const __m512 ai = _mm512_set1_ps(a[i]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[i][v] = _mm512_fmadd_ps(ai, bv[v], acc[i][v]);
      }
    }
  }
  const bool load_c = beta != 0.0f;
  if (mr == kMR && nr == kNR) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        float* p = c + i * ldc + 16 * v;
        const __m512 cv = load_c ? _mm512_loadu_ps(p) : _mm512_setzero_ps();
        _mm512_storeu_ps(p, MergeAvx512(beta, cv, acc[i][v]));
      }
    }
    return;
  }
  alignas(64) float spill[MR * NR];
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      _mm512_store_ps(spill + i * NR + 16 * v, acc[i][v]);
    }
  }
  for (index_t i = 0; i < mr; ++i) {
    for (int v = 0; v < V && 16 * v < nr; ++v) {
      const index_t cols = std::min<index_t>(16, nr - 16 * v);
      const __mmask16 mask = static_cast<__mmask16>((1u << cols) - 1u);
      float* p = c + i * ldc + 16 * v;
      const __m512 cv =
          load_c ? _mm512_maskz_loadu_ps(mask, p) : _mm512_setzero_ps();
      _mm512_mask_storeu_ps(
          p, mask,
          MergeAvx512(beta, cv, _mm512_load_ps(spill + i * NR + 16 * v)));
    }
  }
}

}  // namespace cgdnn::blas::kernels

#endif  // CGDNN_GEMM_ISA_X86
