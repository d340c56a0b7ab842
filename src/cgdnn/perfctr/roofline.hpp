// Roofline model: measured machine ceilings + per-layer placement.
//
// The audit tool (tools/cgdnn_audit) wants to say "conv1 forward reaches
// 61% of what this machine could do for its arithmetic intensity, and the
// shortfall is memory / compute / imbalance". That needs two measured
// ceilings — peak compute (GFLOP/s) and memory bandwidth (GB/s) — and pure
// placement/classification math. The ceilings come from probes run on the
// host at audit startup, not from a spec sheet: a small packed-GEMM probe
// (the same engine the conv/ip layers use, so "peak" is an achievable
// target, docs/perf.md) and a STREAM-triad sweep sized past the LLC.
#pragma once

#include "cgdnn/core/common.hpp"

namespace cgdnn::perfctr {

/// Measured ceilings of this host at a given concurrency.
struct MachinePeak {
  int threads = 1;
  /// Aggregate packed-GEMM GFLOP/s with `threads` concurrent workers.
  double gflops = 0;
  /// Aggregate triad bandwidth in GB/s (counted as 3 streamed arrays).
  double mem_gbps = 0;
  /// Judged against a reference reading at fewer threads only: the GEMM or
  /// triad reading came in below the reference's (a neighbour stole the
  /// cores mid-probe), so the probe ran once more and the better readings
  /// were kept.
  bool probe_rerun = false;
  /// Still below the reference after the re-run: the ceilings are not to
  /// be trusted (roof_efficiency against them overstates).
  bool probe_suspect = false;
  /// ISA-derived compute ceiling: threads x GemmIsaFlopsPerCycle(active
  /// GEMM ISA) x base clock (cpuid leaf 0x16). 0 when the CPU does not
  /// report its clock there (common under virtualization).
  double theoretical_gflops = 0;
  /// Arithmetic intensity (FLOP/byte) where the compute and memory roofs
  /// intersect; below it a kernel is bandwidth-limited.
  double RidgeAi() const { return mem_gbps > 0 ? gflops / mem_gbps : 0; }
};

/// Runs the GEMM and triad probes with `threads` concurrent workers, each
/// the best of `reps` repetitions. `gemm_dim` is the square GEMM size
/// (small enough to keep startup cheap, large enough to hit the packed
/// engine's blocked path); `triad_elems` is the per-array element count of
/// the bandwidth probe. Given a `reference` reading taken at fewer threads
/// (a caller sweeping thread counts passes its 1-thread reading), a reading
/// below it is re-run once (probe_rerun) and flagged if still low
/// (probe_suspect); without one the probes run once.
MachinePeak MeasureMachinePeak(int threads, index_t gemm_dim = 192,
                               index_t triad_elems = 1 << 22, int reps = 3,
                               const MachinePeak* reference = nullptr);

/// Base clock in GHz from cpuid leaf 0x16; 0 when the leaf is absent or
/// reads 0 (and on non-x86 hosts).
double CpuBaseClockGhz();

/// Where one (layer, phase, thread-count) measurement sits on the roofline.
struct RooflinePoint {
  double ai = 0;                 ///< FLOP/byte of the kernel
  double achieved_gflops = 0;    ///< flops / measured time
  double attainable_gflops = 0;  ///< min(peak, ai * bandwidth)
  /// achieved / attainable in [0, ~1]; 0 when inputs were degenerate.
  double roof_efficiency = 0;
  /// True when the bandwidth roof (ai * bw) is below the compute peak,
  /// i.e. the point sits left of the ridge.
  bool memory_limited = false;
  bool valid = false;
};

RooflinePoint PlaceOnRoofline(double flops, double bytes, double time_us,
                              const MachinePeak& peak);

/// Why a measurement falls short of ideal scaling.
enum class BoundClass {
  kCompute,    ///< near the compute roof (or AI above the ridge)
  kMemory,     ///< AI below the ridge: bandwidth is the ceiling
  kImbalance,  ///< one straggler thread dominates the region
  kUnknown,    ///< degenerate inputs (no flops/bytes/time measured)
};

const char* BoundClassName(BoundClass c);

/// Imbalance ratio (max/mean per-thread busy time) above which the
/// shortfall is attributed to load imbalance rather than the roofline.
constexpr double kImbalanceBoundThreshold = 1.25;

/// Classification: imbalance wins when the region's max/mean busy-time
/// ratio exceeds kImbalanceBoundThreshold (a straggler explains the gap
/// regardless of where the roof is); otherwise the AI-vs-ridge position
/// picks memory or compute. `imbalance_ratio <= 0` means "not measured"
/// (serial run or instrumentation off) and never selects kImbalance.
BoundClass ClassifyBound(const RooflinePoint& point, double imbalance_ratio);

}  // namespace cgdnn::perfctr
