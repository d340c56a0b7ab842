// Implicit-im2col convolution kernels (see direct_conv.hpp for the
// bit-identity contract with the materialized im2col + GEMM path).
#include "cgdnn/blas/direct_conv.hpp"

#include <algorithm>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/gemm_kernels.hpp"
#include "cgdnn/core/arena.hpp"

namespace cgdnn::blas {

namespace {

/// Gathers elements of the virtual col matrix. Row r of col corresponds to
/// (channel, kernel-row, kernel-col) = decompose(r); column `pos` to output
/// position (oh, ow) = (pos / out_w, pos % out_w). The decompositions are
/// precomputed into arena tables once per sample call so the hot gather is
/// table lookups + bounds checks — no divisions.
template <typename Dtype>
class ImplicitCol {
 public:
  ImplicitCol(const ConvGeom& g, const Dtype* image, ThreadArena& arena)
      : g_(g), image_(image) {
    const index_t n = g.out_spatial();
    const index_t k = g.kernel_dim();
    iy0_ = static_cast<index_t*>(
        arena.Allocate(static_cast<std::size_t>(n) * sizeof(index_t)));
    ix0_ = static_cast<index_t*>(
        arena.Allocate(static_cast<std::size_t>(n) * sizeof(index_t)));
    row_c_ = static_cast<index_t*>(
        arena.Allocate(static_cast<std::size_t>(k) * sizeof(index_t)));
    row_kh_ = static_cast<index_t*>(
        arena.Allocate(static_cast<std::size_t>(k) * sizeof(index_t)));
    row_kw_ = static_cast<index_t*>(
        arena.Allocate(static_cast<std::size_t>(k) * sizeof(index_t)));
    for (index_t pos = 0; pos < n; ++pos) {
      iy0_[pos] = (pos / g.out_w) * g.stride_h - g.pad_h;
      ix0_[pos] = (pos % g.out_w) * g.stride_w - g.pad_w;
    }
    for (index_t r = 0; r < k; ++r) {
      row_c_[r] = r / (g.kernel_h * g.kernel_w);
      row_kh_[r] = r / g.kernel_w % g.kernel_h;
      row_kw_[r] = r % g.kernel_w;
    }
  }

  /// col(r, pos), zero outside the padded image.
  Dtype At(index_t r, index_t pos) const {
    const index_t ih = iy0_[pos] + row_kh_[r];
    const index_t iw = ix0_[pos] + row_kw_[r];
    if (ih < 0 || ih >= g_.height || iw < 0 || iw >= g_.width) {
      return Dtype(0);
    }
    return image_[(row_c_[r] * g_.height + ih) * g_.width + iw];
  }

  /// out[0..len) = col(r, pos0..pos0+len); the values im2col would have
  /// stored in that row segment.
  void GatherRow(index_t r, index_t pos0, index_t len, Dtype* out) const {
    const index_t kh = row_kh_[r];
    const index_t kw = row_kw_[r];
    const Dtype* plane = image_ + row_c_[r] * g_.height * g_.width;
    for (index_t i = 0; i < len; ++i) {
      const index_t pos = pos0 + i;
      const index_t ih = iy0_[pos] + kh;
      const index_t iw = ix0_[pos] + kw;
      out[i] = (ih < 0 || ih >= g_.height || iw < 0 || iw >= g_.width)
                   ? Dtype(0)
                   : plane[ih * g_.width + iw];
    }
  }

 private:
  const ConvGeom& g_;
  const Dtype* image_;
  index_t* iy0_ = nullptr;   // per output position: oh*stride_h - pad_h
  index_t* ix0_ = nullptr;   // per output position: ow*stride_w - pad_w
  index_t* row_c_ = nullptr;  // per col row: input channel
  index_t* row_kh_ = nullptr;  // per col row: kernel row offset
  index_t* row_kw_ = nullptr;  // per col row: kernel col offset
};

/// DirectConvForward with the process's tile (one ISA switch at entry).
template <typename Tile, typename Dtype = typename Tile::Scalar>
void DirectConvForwardWith(const ConvGeom& g, index_t num_output,
                           const Dtype* weights, const Dtype* image,
                           Dtype* top) {
  const index_t m = num_output;
  const index_t n = g.out_spatial();
  const index_t k = g.kernel_dim();
  ThreadArena& arena = kernels::PackArena();
  arena.ResetScope();
  const ImplicitCol<Dtype> col(g, image, arena);

  if (kernels::UsePackedPath<Tile>(n, k)) {
    const kernels::PackBuffers<Tile> packs(arena);
    kernels::PackedGemmLoop<Tile>(
        m, n, k, Dtype(0), top, n,
        [&](index_t i0, index_t p0, index_t mc, index_t kc, Dtype* pack) {
          kernels::PackASlab<Tile>(false, weights, k, i0, p0, mc, kc,
                                   Dtype(1), pack);
        },
        // Pack op(B) slabs straight from the image: panel layout and values
        // match PackBSlab(false, col_matrix, n, ...) element for element, so
        // the microkernel sees byte-identical inputs.
        [&](index_t p0, index_t j0, index_t kc, index_t nc, Dtype* pack) {
          constexpr index_t NR = Tile::kNR;
          for (index_t jr = 0; jr < nc; jr += NR) {
            const index_t nr = std::min(NR, nc - jr);
            for (index_t kk = 0; kk < kc; ++kk) {
              col.GatherRow(p0 + kk, j0 + jr, nr, pack);
              for (index_t j = nr; j < NR; ++j) pack[j] = Dtype(0);
              pack += NR;
            }
          }
        },
        packs);
    return;
  }

  // Small path: same per-element ascending-kk accumulation chains as
  // SmallGemmNN — the i/kk loops are interchanged so each gathered row is
  // reused across all m output rows, which permutes only whole-row updates,
  // never the order of adds into one element.
  kernels::ScaleC(m, n, Dtype(0), top);
  auto* rowbuf = static_cast<Dtype*>(
      arena.Allocate(static_cast<std::size_t>(n) * sizeof(Dtype)));
  for (index_t k0 = 0; k0 < k; k0 += kernels::kSmallGemmBlockK) {
    const index_t k1 = std::min(k0 + kernels::kSmallGemmBlockK, k);
    for (index_t kk = k0; kk < k1; ++kk) {
      col.GatherRow(kk, 0, n, rowbuf);
      for (index_t i = 0; i < m; ++i) {
        kernels::AxpyRowKernel(n, Dtype(1) * weights[i * k + kk], rowbuf,
                               top + i * n);
      }
    }
  }
}

/// DirectConvBackwardWeights with the process's tile.
template <typename Tile, typename Dtype = typename Tile::Scalar>
void DirectConvBackwardWeightsWith(const ConvGeom& g, index_t num_output,
                                   const Dtype* top_diff, const Dtype* image,
                                   Dtype* weight_diff) {
  const index_t m = num_output;
  const index_t n = g.kernel_dim();
  const index_t k = g.out_spatial();
  ThreadArena& arena = kernels::PackArena();
  arena.ResetScope();
  const ImplicitCol<Dtype> col(g, image, arena);

  if (kernels::UsePackedPath<Tile>(n, k)) {
    const kernels::PackBuffers<Tile> packs(arena);
    kernels::PackedGemmLoop<Tile>(
        m, n, k, Dtype(1), weight_diff, n,
        [&](index_t i0, index_t p0, index_t mc, index_t kc, Dtype* pack) {
          kernels::PackASlab<Tile>(false, top_diff, k, i0, p0, mc, kc,
                                   Dtype(1), pack);
        },
        // op(B)(kk, j) = col^T(kk, j) = col(j0+jr+j, p0+kk): matches
        // PackBSlab(true, col_matrix, out_spatial, ...) element for element.
        [&](index_t p0, index_t j0, index_t kc, index_t nc, Dtype* pack) {
          constexpr index_t NR = Tile::kNR;
          for (index_t jr = 0; jr < nc; jr += NR) {
            const index_t nr = std::min(NR, nc - jr);
            for (index_t kk = 0; kk < kc; ++kk) {
              for (index_t j = 0; j < nr; ++j) {
                pack[j] = col.At(j0 + jr + j, p0 + kk);
              }
              for (index_t j = nr; j < NR; ++j) pack[j] = Dtype(0);
              pack += NR;
            }
          }
        },
        packs);
    return;
  }

  // Small path: SmallGemmNT computes each element's dot with one
  // DotRowKernel call and one `+=` — the i/j loop interchange (gathered row
  // reused across output rows) cannot reorder anything within an element.
  auto* rowbuf = static_cast<Dtype*>(
      arena.Allocate(static_cast<std::size_t>(k) * sizeof(Dtype)));
  for (index_t j = 0; j < n; ++j) {
    col.GatherRow(j, 0, k, rowbuf);
    for (index_t i = 0; i < m; ++i) {
      weight_diff[i * n + j] +=
          Dtype(1) * kernels::DotRowKernel(k, top_diff + i * k, rowbuf);
    }
  }
}

}  // namespace

bool DirectConvSupported(const ConvGeom& g, index_t group, index_t dilation) {
  return group == 1 && dilation == 1 && g.out_spatial() > 0 &&
         g.kernel_dim() > 0;
}

template <typename Dtype>
void DirectConvForward(const ConvGeom& g, index_t num_output,
                       const Dtype* weights, const Dtype* image, Dtype* top) {
  kernels::WithActiveTile<Dtype>([&](auto tile) {
    DirectConvForwardWith<decltype(tile)>(g, num_output, weights, image, top);
  });
}

template <typename Dtype>
void DirectConvBackwardWeights(const ConvGeom& g, index_t num_output,
                               const Dtype* top_diff, const Dtype* image,
                               Dtype* weight_diff) {
  kernels::WithActiveTile<Dtype>([&](auto tile) {
    DirectConvBackwardWeightsWith<decltype(tile)>(g, num_output, top_diff,
                                                  image, weight_diff);
  });
}

#define CGDNN_INSTANTIATE_DIRECT_CONV(Dtype)                               \
  template void DirectConvForward<Dtype>(const ConvGeom&, index_t,         \
                                         const Dtype*, const Dtype*,       \
                                         Dtype*);                          \
  template void DirectConvBackwardWeights<Dtype>(                          \
      const ConvGeom&, index_t, const Dtype*, const Dtype*, Dtype*)

CGDNN_INSTANTIATE_DIRECT_CONV(float);
CGDNN_INSTANTIATE_DIRECT_CONV(double);

}  // namespace cgdnn::blas
