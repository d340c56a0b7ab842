// Instruction-set selection for the float GEMM microkernel.
//
// The default build targets baseline x86-64, yet the packed GEMM engine
// (blas/gemm_kernels.hpp) carries one float microkernel per ISA, each
// compiled under its own per-function target attribute. The ISA is picked
// once per process: the best one the CPU reports (cpuid), unless the
// CGDNN_ISA environment variable names another for reproduction
// (`baseline`, `avx2`, `avx512`). An unknown name, or an ISA this host
// lacks, raises cgdnn::Error at the first GEMM — never SIGILL.
//
// Bit-identity holds per ISA: every GEMM call site in a process (im2col and
// direct conv, serial and parallel, row-partitioned and full) runs the same
// kernel symbol. Across ISAs the bits differ, because the FMA kernels round
// once per multiply-add where the baseline kernel rounds twice.
#pragma once

#include <string_view>

#include "cgdnn/core/common.hpp"

/// 1 where the AVX2/AVX-512 microkernels are compiled in (x86-64 under
/// GCC/Clang, which provide per-function target attributes and cpuid);
/// elsewhere only the baseline kernel exists.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CGDNN_GEMM_ISA_X86 1
#else
#define CGDNN_GEMM_ISA_X86 0
#endif

namespace cgdnn {

/// Ordered from least to most capable: a host that supports one supports
/// every ISA before it.
enum class GemmIsa { kBaseline, kAvx2, kAvx512 };

/// Register tile (rows x columns of C) one microkernel updates per call.
struct GemmTileShape {
  index_t mr;
  index_t nr;
};

/// The float tile of each ISA: baseline 4x8 (`omp simd`, SSE2), AVX2+FMA
/// 6x16 (12 ymm accumulators), AVX-512F 8x32 (16 zmm accumulators). Double
/// precision always runs the portable 4x4 tile.
constexpr GemmTileShape FloatGemmTile(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx2: return {6, 16};
    case GemmIsa::kAvx512: return {8, 32};
    case GemmIsa::kBaseline: break;
  }
  return {4, 8};
}

/// Peak single-precision FLOPs per cycle per core of the ISA's vector
/// units: lanes x 2 ports x 2 for the FMA ISAs; baseline SSE2 has no FMA,
/// so its 4 lanes retire one add and one multiply per cycle.
constexpr int GemmIsaFlopsPerCycle(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx2: return 8 * 2 * 2;
    case GemmIsa::kAvx512: return 16 * 2 * 2;
    case GemmIsa::kBaseline: break;
  }
  return 4 * 2;
}

/// "baseline" | "avx2" | "avx512" — the CGDNN_ISA spelling.
const char* GemmIsaName(GemmIsa isa);

/// Parses a CGDNN_ISA value; throws Error on any other spelling.
GemmIsa ParseGemmIsa(std::string_view name);

/// Best ISA this CPU (and OS, for the wide register state) supports.
GemmIsa HostGemmIsa();

/// `override_value` null or empty: `host`. Otherwise the parsed ISA, which
/// must not exceed `host` (Error otherwise: the kernel would fault).
GemmIsa ResolveGemmIsa(const char* override_value, GemmIsa host);

/// The process's ISA: ResolveGemmIsa($CGDNN_ISA, HostGemmIsa()), resolved
/// on first call and fixed from then on. A failed resolution throws on
/// every call.
GemmIsa ActiveGemmIsa();

}  // namespace cgdnn
