// Direct (implicit-im2col) convolution kernels, the planner's alternative to
// the materialized im2col + GEMM path.
//
// Instead of lowering a sample to a (channels*kh*kw) x out_spatial column
// matrix in memory and running GEMM over it, these kernels gather the same
// column values straight from the input image while packing — the "col"
// matrix exists only virtually. For small-channel / small-kernel shapes
// (cifar conv1: 3 input channels lower to a 25x-larger col matrix) this
// removes the col write+read round-trip entirely and keeps the image
// resident in L1/L2; the planner's cost model decides per shape whether
// that beats the materialized path.
//
// Bit-identity contract (docs/perf.md): both strategies run the SAME kernel
// symbols from gemm_kernels.hpp — the packed path feeds the process's
// register tile (one per ISA, fixed per process) pack buffers that are
// byte-identical to what PackBSlab would produce from a materialized col
// matrix, and the small path runs AxpyRowKernel /
// DotRowKernel in the same per-element ascending-k order as SmallGemmNN /
// SmallGemmNT. A planner strategy switch therefore never changes a single
// output bit, which the planned-vs-unplanned thread-sweep tests enforce.
//
// Scope: group == 1 and dilation == 1 (every conv in the paper's evaluation
// networks). The backward-bottom pass stays on the materialized path — it
// *writes* the col matrix (W^T * top_diff) before col2im, so there is
// nothing to gather implicitly.
#pragma once

#include "cgdnn/core/common.hpp"

namespace cgdnn::blas {

/// One sample's conv geometry, shared by the direct kernels and the
/// planner's cost model.
struct ConvGeom {
  index_t channels = 0, height = 0, width = 0;
  index_t kernel_h = 0, kernel_w = 0;
  index_t pad_h = 0, pad_w = 0;
  index_t stride_h = 1, stride_w = 1;
  index_t out_h = 0, out_w = 0;

  index_t out_spatial() const { return out_h * out_w; }
  index_t kernel_dim() const { return channels * kernel_h * kernel_w; }
  index_t bottom_dim() const { return channels * height * width; }
};

/// True when the direct kernels cover this shape (group == 1, no dilation).
bool DirectConvSupported(const ConvGeom& g, index_t group, index_t dilation);

/// top[num_output x out_spatial] = weights[num_output x kernel_dim] *
/// implicit_col(image); bit-identical to
///   im2col(image, col); gemm(kNo, kNo, num_output, out_spatial, kernel_dim,
///                            1, weights, col, 0, top)
template <typename Dtype>
void DirectConvForward(const ConvGeom& g, index_t num_output,
                       const Dtype* weights, const Dtype* image, Dtype* top);

/// weight_diff[num_output x kernel_dim] += top_diff[num_output x out_spatial]
/// * implicit_col(image)^T; bit-identical to
///   im2col(image, col); gemm(kNo, kTrans, num_output, kernel_dim,
///                            out_spatial, 1, top_diff, col, 1, weight_diff)
template <typename Dtype>
void DirectConvBackwardWeights(const ConvGeom& g, index_t num_output,
                               const Dtype* top_diff, const Dtype* image,
                               Dtype* weight_diff);

}  // namespace cgdnn::blas
