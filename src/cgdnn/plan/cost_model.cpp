#include "cgdnn/plan/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/im2col.hpp"
#include "cgdnn/profile/timer.hpp"

namespace cgdnn::plan {

namespace {

// Modelled cost (in "equivalent flops") of gathering one column element in
// the direct path: index decomposition + bounds test + load. Calibrated
// roughly against the measured gap on small-channel shapes; the measured
// refinement absorbs the error anyway.
constexpr double kGatherFlopsPerElem = 4.0;

// Relative analytic margin below which the two strategies are considered
// too close to call and the planner measures instead of trusting the model.
constexpr double kMeasureMarginFrac = 0.30;

}  // namespace

double ConvForwardFlops(const blas::ConvGeom& g, index_t num_output) {
  return 2.0 * static_cast<double>(num_output) *
         static_cast<double>(g.kernel_dim()) *
         static_cast<double>(g.out_spatial());
}

double ConvForwardBytes(const blas::ConvGeom& g, index_t num_output,
                        int dtype_bytes, index_t samples) {
  const double weight_bytes = static_cast<double>(num_output) *
                              static_cast<double>(g.kernel_dim()) *
                              dtype_bytes;
  const double image_bytes = static_cast<double>(g.bottom_dim()) * dtype_bytes;
  const double top_bytes = static_cast<double>(num_output) *
                           static_cast<double>(g.out_spatial()) * dtype_bytes;
  return weight_bytes +
         static_cast<double>(samples) * (image_bytes + top_bytes);
}

double AnalyticConvForwardUs(const blas::ConvGeom& g, index_t num_output,
                             bool direct, int dtype_bytes,
                             const perfctr::MachinePeak& peak) {
  const double col_elems = static_cast<double>(g.kernel_dim()) *
                           static_cast<double>(g.out_spatial());
  double flops = ConvForwardFlops(g, num_output);
  // Both paths read the weights and image and write the top once.
  double bytes = ConvForwardBytes(g, num_output, dtype_bytes);
  if (direct) {
    // The implicit gather touches each column element once (from the image,
    // usually cache-resident) but pays index arithmetic per element.
    flops += col_elems * kGatherFlopsPerElem;
    bytes += col_elems * dtype_bytes;  // pack-buffer write
  } else {
    // Materialized im2col writes the col matrix, then the GEMM reads it
    // back; the pack stage writes it a second time into the pack buffer.
    bytes += 3.0 * col_elems * dtype_bytes;
  }

  // Per-shape planning is per-sample work executed by ONE thread (the batch
  // loop is the parallel loop), so scale the aggregate roofs down to a
  // single worker's share.
  const double t = std::max(1, peak.threads);
  const double gflops = std::max(1e-3, peak.gflops / t);
  const double gbps = std::max(1e-3, peak.mem_gbps / t);
  return std::max(flops / (gflops * 1e3), bytes / (gbps * 1e3));
}

template <typename Dtype>
double MeasureConvForwardUs(const blas::ConvGeom& g, index_t num_output,
                            bool direct, int reps) {
  const index_t k = g.kernel_dim();
  const index_t n = g.out_spatial();
  // Value-independent kernels: constant fill is as representative as real
  // activations and keeps the probe deterministic.
  std::vector<Dtype> weights(static_cast<std::size_t>(num_output * k),
                             Dtype(0.5));
  std::vector<Dtype> image(static_cast<std::size_t>(g.bottom_dim()),
                           Dtype(0.25));
  std::vector<Dtype> top(static_cast<std::size_t>(num_output * n), Dtype(0));
  std::vector<Dtype> col;
  if (!direct) col.resize(static_cast<std::size_t>(k * n));

  double best = 0;
  for (int r = 0; r < reps; ++r) {
    profile::Timer timer;
    if (direct) {
      blas::DirectConvForward(g, num_output, weights.data(), image.data(),
                              top.data());
    } else {
      blas::im2col(image.data(), g.channels, g.height, g.width, g.kernel_h,
                   g.kernel_w, g.pad_h, g.pad_w, g.stride_h, g.stride_w,
                   index_t{1}, index_t{1}, col.data());
      blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, num_output, n, k,
                 Dtype(1), weights.data(), col.data(), Dtype(0), top.data());
    }
    const double us = timer.MicroSeconds();
    if (r == 0 || us < best) best = us;
  }
  return best;
}

template <typename Dtype>
bool ChooseDirectForward(const blas::ConvGeom& g, index_t num_output,
                         const perfctr::MachinePeak& peak, bool measure,
                         ConvCost* cost) {
  ConvCost c;
  c.im2col_us = AnalyticConvForwardUs(g, num_output, /*direct=*/false,
                                      sizeof(Dtype), peak);
  c.direct_us = AnalyticConvForwardUs(g, num_output, /*direct=*/true,
                                      sizeof(Dtype), peak);
  const double lo = std::min(c.im2col_us, c.direct_us);
  const double hi = std::max(c.im2col_us, c.direct_us);
  const bool close = lo <= 0 || (hi - lo) / hi < kMeasureMarginFrac;
  bool direct = c.direct_us < c.im2col_us;
  if (measure || close) {
    c.measured_im2col_us =
        MeasureConvForwardUs<Dtype>(g, num_output, /*direct=*/false);
    c.measured_direct_us =
        MeasureConvForwardUs<Dtype>(g, num_output, /*direct=*/true);
    direct = c.measured_direct_us < c.measured_im2col_us;
  }
  if (cost != nullptr) *cost = c;
  return direct;
}

template double MeasureConvForwardUs<float>(const blas::ConvGeom&, index_t,
                                            bool, int);
template double MeasureConvForwardUs<double>(const blas::ConvGeom&, index_t,
                                             bool, int);
template bool ChooseDirectForward<float>(const blas::ConvGeom&, index_t,
                                         const perfctr::MachinePeak&, bool,
                                         ConvCost*);
template bool ChooseDirectForward<double>(const blas::ConvGeom&, index_t,
                                          const perfctr::MachinePeak&, bool,
                                          ConvCost*);

}  // namespace cgdnn::plan
