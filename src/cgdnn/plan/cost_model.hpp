// Analytic + measured cost model for per-shape conv kernel selection.
// ConvForwardFlops / ConvForwardBytes are also the conv entries of the
// per-layer cost descriptor (layer_cost.hpp).
//
// The planner must decide, per convolution shape, whether the materialized
// im2col+GEMM path or the direct (implicit-im2col) path is faster. Both are
// bit-identical (blas/direct_conv.hpp), so this is purely a performance
// choice. The first cut is analytic: a two-roof estimate
//
//   us = max(flops / compute_roof, bytes / bandwidth_roof)
//
// seeded from the measured machine ceilings of perfctr::MeasureMachinePeak
// (the same probes the audit tool's roofline uses, so "peak" here means
// achievable-by-our-kernels, not a spec sheet). The analytic model only has
// to rank the two strategies, not predict wall time — but ranking from a
// two-parameter model is fragile near the crossover, so the planner refines
// the decision by actually timing both kernels on dummy buffers whenever the
// analytic margin is thin (both kernels are value-independent, so timing
// synthetic data is faithful).
#pragma once

#include "cgdnn/blas/direct_conv.hpp"
#include "cgdnn/perfctr/roofline.hpp"

namespace cgdnn::plan {

/// Analytic and (optionally) measured per-sample costs of one conv shape.
struct ConvCost {
  double im2col_us = 0;            ///< analytic estimate, im2col+GEMM
  double direct_us = 0;            ///< analytic estimate, direct
  double measured_im2col_us = -1;  ///< wall time; < 0 when not measured
  double measured_direct_us = -1;
};

/// FLOPs of one sample's forward conv (multiply+add counted separately).
double ConvForwardFlops(const blas::ConvGeom& g, index_t num_output);

/// Bytes a forward conv over `samples` samples must move: the weights once,
/// plus each sample's image read and top write.
double ConvForwardBytes(const blas::ConvGeom& g, index_t num_output,
                        int dtype_bytes, index_t samples = 1);

/// Analytic per-sample forward cost in microseconds for one strategy.
/// `dtype_bytes` is sizeof the element type (4 or 8).
double AnalyticConvForwardUs(const blas::ConvGeom& g, index_t num_output,
                             bool direct, int dtype_bytes,
                             const perfctr::MachinePeak& peak);

/// Wall-clock per-sample forward time of one strategy on synthetic buffers
/// (min over `reps` runs). Allocates its own scratch; thread-safe.
template <typename Dtype>
double MeasureConvForwardUs(const blas::ConvGeom& g, index_t num_output,
                            bool direct, int reps = 3);

/// Full decision for one shape: analytic estimates always, measured
/// refinement when `measure` is set or the analytic margin is below 30%.
/// Returns true when the direct strategy should be used.
template <typename Dtype>
bool ChooseDirectForward(const blas::ConvGeom& g, index_t num_output,
                         const perfctr::MachinePeak& peak, bool measure,
                         ConvCost* cost);

}  // namespace cgdnn::plan
