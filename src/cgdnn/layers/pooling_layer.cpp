#include "cgdnn/layers/pooling_layer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void PoolingLayer<Dtype>::LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                                     const std::vector<Blob<Dtype>*>& top) {
  (void)bottom;
  (void)top;
  const auto& p = this->layer_param_.pooling_param;
  method_ = p.pool;
  global_pooling_ = p.global_pooling;
  kernel_ = p.kernel_size;
  stride_ = p.stride;
  pad_ = p.pad;
  if (!global_pooling_) {
    CGDNN_CHECK_GT(kernel_, 0) << "pooling kernel size unset for layer "
                               << this->layer_param_.name;
  }
  CGDNN_CHECK_GT(stride_, 0);
  CGDNN_CHECK_GE(pad_, 0);
  if (pad_ > 0) {
    CGDNN_CHECK_LT(pad_, kernel_) << "padding must be smaller than the kernel";
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  num_ = bottom[0]->num();
  channels_ = bottom[0]->channels();
  height_ = bottom[0]->height();
  width_ = bottom[0]->width();
  if (global_pooling_) {
    // One output per (n, c) plane; the window spans the whole input.
    kernel_ = std::max(height_, width_);
    stride_ = 1;
    pad_ = 0;
    pooled_h_ = 1;
    pooled_w_ = 1;
    top[0]->Reshape(num_, channels_, pooled_h_, pooled_w_);
    if (method_ == proto::PoolingParameter::Method::kMax) {
      max_idx_.assign(static_cast<std::size_t>(top[0]->count()), -1);
    }
    return;
  }
  // Caffe uses ceil for pooled extents (unlike conv's floor) so no input
  // pixel is dropped on the right/bottom edges.
  pooled_h_ = static_cast<index_t>(std::ceil(
                  static_cast<double>(height_ + 2 * pad_ - kernel_) /
                  static_cast<double>(stride_))) +
              1;
  pooled_w_ = static_cast<index_t>(std::ceil(
                  static_cast<double>(width_ + 2 * pad_ - kernel_) /
                  static_cast<double>(stride_))) +
              1;
  if (pad_ > 0) {
    // Clip the last window to start inside the (padded) image.
    if ((pooled_h_ - 1) * stride_ >= height_ + pad_) --pooled_h_;
    if ((pooled_w_ - 1) * stride_ >= width_ + pad_) --pooled_w_;
  }
  top[0]->Reshape(num_, channels_, pooled_h_, pooled_w_);
  if (method_ == proto::PoolingParameter::Method::kMax) {
    max_idx_.assign(static_cast<std::size_t>(top[0]->count()), -1);
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::ForwardPlane(const Dtype* bottom_plane,
                                       Dtype* top_plane,
                                       index_t* mask_plane) const {
  const bool is_max = method_ == proto::PoolingParameter::Method::kMax;
  for (index_t ph = 0; ph < pooled_h_; ++ph) {
    for (index_t pw = 0; pw < pooled_w_; ++pw) {
      index_t hstart = ph * stride_ - pad_;
      index_t wstart = pw * stride_ - pad_;
      index_t hend = std::min(hstart + kernel_, height_ + (is_max ? 0 : pad_));
      index_t wend = std::min(wstart + kernel_, width_ + (is_max ? 0 : pad_));
      const index_t pool_size = (hend - hstart) * (wend - wstart);  // AVE: incl. pad
      hstart = std::max<index_t>(hstart, 0);
      wstart = std::max<index_t>(wstart, 0);
      hend = std::min(hend, height_);
      wend = std::min(wend, width_);
      const index_t out_idx = ph * pooled_w_ + pw;
      if (is_max) {
        Dtype best = -std::numeric_limits<Dtype>::max();
        index_t best_idx = -1;
        for (index_t h = hstart; h < hend; ++h) {
          for (index_t w = wstart; w < wend; ++w) {
            const index_t idx = h * width_ + w;
            if (bottom_plane[idx] > best) {
              best = bottom_plane[idx];
              best_idx = idx;
            }
          }
        }
        top_plane[out_idx] = best;
        mask_plane[out_idx] = best_idx;
      } else {
        Dtype sum = 0;
        for (index_t h = hstart; h < hend; ++h) {
          for (index_t w = wstart; w < wend; ++w) {
            sum += bottom_plane[h * width_ + w];
          }
        }
        top_plane[out_idx] = sum / static_cast<Dtype>(pool_size);
      }
    }
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::BackwardPlane(const Dtype* top_diff_plane,
                                        const index_t* mask_plane,
                                        Dtype* bottom_diff_plane) const {
  std::memset(bottom_diff_plane, 0,
              static_cast<std::size_t>(height_ * width_) * sizeof(Dtype));
  const bool is_max = method_ == proto::PoolingParameter::Method::kMax;
  for (index_t ph = 0; ph < pooled_h_; ++ph) {
    for (index_t pw = 0; pw < pooled_w_; ++pw) {
      const index_t out_idx = ph * pooled_w_ + pw;
      if (is_max) {
        const index_t src = mask_plane[out_idx];
        if (src >= 0) bottom_diff_plane[src] += top_diff_plane[out_idx];
      } else {
        index_t hstart = ph * stride_ - pad_;
        index_t wstart = pw * stride_ - pad_;
        const index_t hend0 = std::min(hstart + kernel_, height_ + pad_);
        const index_t wend0 = std::min(wstart + kernel_, width_ + pad_);
        const index_t pool_size = (hend0 - hstart) * (wend0 - wstart);
        hstart = std::max<index_t>(hstart, 0);
        wstart = std::max<index_t>(wstart, 0);
        const index_t hend = std::min(hend0, height_);
        const index_t wend = std::min(wend0, width_);
        const Dtype share =
            top_diff_plane[out_idx] / static_cast<Dtype>(pool_size);
        for (index_t h = hstart; h < hend; ++h) {
          for (index_t w = wstart; w < wend; ++w) {
            bottom_diff_plane[h * width_ + w] += share;
          }
        }
      }
    }
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t in_plane = height_ * width_;
  const index_t out_plane = pooled_h_ * pooled_w_;
  const FusedEpilogue<Dtype>* ep = this->fused_epilogue();
  for (index_t n = 0; n < num_; ++n) {
    for (index_t c = 0; c < channels_; ++c) {
      const index_t plane = n * channels_ + c;
      ForwardPlane(bottom_data + plane * in_plane, top_data + plane * out_plane,
                   max_idx_.data() + plane * out_plane);
      if (ep != nullptr) {
        ep->ApplyForward(top_data + plane * out_plane, plane * out_plane,
                         out_plane);
      }
    }
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t in_plane = height_ * width_;
  const index_t out_plane = pooled_h_ * pooled_w_;
  index_t* mask = max_idx_.data();
  const FusedEpilogue<Dtype>* ep = this->fused_epilogue();
  // Algorithm 4: the (n, c) loops coalesce into one parallel loop of
  // planes. The decode is the identity because the planes are stored
  // contiguously in exactly (n*C + c) order. Without coalescing, each work
  // item is a whole sample (ablation).
  const bool coalesce = parallel::Parallel::Config().coalesce;
  const index_t per_item = coalesce ? 1 : channels_;
  parallel::ForEachChunk(
      coalesce ? num_ * channels_ : num_, [&](const parallel::Chunk& c) {
        const index_t first = c.begin * per_item;
        const index_t last = c.end * per_item;
        for (index_t plane = first; plane < last; ++plane) {
          ForwardPlane(bottom_data + plane * in_plane,
                       top_data + plane * out_plane, mask + plane * out_plane);
          if (ep != nullptr) {
            // Fused elementwise chain per plane (writes stay in this plane).
            ep->ApplyForward(top_data + plane * out_plane, plane * out_plane,
                             out_plane);
          }
        }
        c.Wrote(top_data, "top.data", first * out_plane, last * out_plane);
        c.Wrote(mask, "max_idx", first * out_plane, last * out_plane);
      });
}

template <typename Dtype>
void PoolingLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t in_plane = height_ * width_;
  const index_t out_plane = pooled_h_ * pooled_w_;
  for (index_t n = 0; n < num_; ++n) {
    for (index_t c = 0; c < channels_; ++c) {
      const index_t plane = n * channels_ + c;
      BackwardPlane(top_diff + plane * out_plane,
                    max_idx_.data() + plane * out_plane,
                    bottom_diff + plane * in_plane);
    }
  }
}

template <typename Dtype>
void PoolingLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t in_plane = height_ * width_;
  const index_t out_plane = pooled_h_ * pooled_w_;
  const index_t* mask = max_idx_.data();
  const bool coalesce = parallel::Parallel::Config().coalesce;
  const index_t per_item = coalesce ? 1 : channels_;
  parallel::ForEachChunk(
      coalesce ? num_ * channels_ : num_, [&](const parallel::Chunk& c) {
        const index_t first = c.begin * per_item;
        const index_t last = c.end * per_item;
        for (index_t plane = first; plane < last; ++plane) {
          BackwardPlane(top_diff + plane * out_plane, mask + plane * out_plane,
                        bottom_diff + plane * in_plane);
        }
        c.Wrote(bottom_diff, "bottom.diff", first * in_plane,
                last * in_plane);
      });
}

template class PoolingLayer<float>;
template class PoolingLayer<double>;

}  // namespace cgdnn
