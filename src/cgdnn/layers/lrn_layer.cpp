#include "cgdnn/layers/lrn_layer.hpp"

#include <cmath>

#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void LRNLayer<Dtype>::LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                                 const std::vector<Blob<Dtype>*>& top) {
  (void)bottom;
  (void)top;
  const auto& p = this->layer_param_.lrn_param;
  CGDNN_CHECK(p.norm_region ==
              proto::LRNParameter::NormRegion::kAcrossChannels)
      << "only ACROSS_CHANNELS LRN is implemented";
  size_ = p.local_size;
  CGDNN_CHECK_EQ(size_ % 2, 1) << "LRN local_size must be odd";
  alpha_ = static_cast<Dtype>(p.alpha);
  beta_ = static_cast<Dtype>(p.beta);
  k_ = static_cast<Dtype>(p.k);
}

template <typename Dtype>
void LRNLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                              const std::vector<Blob<Dtype>*>& top) {
  num_ = bottom[0]->num();
  channels_ = bottom[0]->channels();
  height_ = bottom[0]->height();
  width_ = bottom[0]->width();
  top[0]->ReshapeLike(*bottom[0]);
  scale_.ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void LRNLayer<Dtype>::ForwardRow(const Dtype* bottom_n, Dtype* top_n,
                                 Dtype* scale_n, index_t y) const {
  const index_t plane = height_ * width_;
  const index_t half = (size_ - 1) / 2;
  const Dtype alpha_over_size = alpha_ / static_cast<Dtype>(size_);
  for (index_t x = 0; x < width_; ++x) {
    const index_t pos = y * width_ + x;
    for (index_t c = 0; c < channels_; ++c) {
      const index_t lo = std::max<index_t>(0, c - half);
      const index_t hi = std::min(channels_ - 1, c + half);
      Dtype accum = 0;
      for (index_t cc = lo; cc <= hi; ++cc) {
        const Dtype v = bottom_n[cc * plane + pos];
        accum += v * v;
      }
      const Dtype s = k_ + alpha_over_size * accum;
      scale_n[c * plane + pos] = s;
      top_n[c * plane + pos] =
          bottom_n[c * plane + pos] * std::pow(s, -beta_);
    }
  }
}

template <typename Dtype>
void LRNLayer<Dtype>::BackwardRow(const Dtype* bottom_n, const Dtype* top_n,
                                  const Dtype* scale_n,
                                  const Dtype* top_diff_n,
                                  Dtype* bottom_diff_n, index_t y) const {
  const index_t plane = height_ * width_;
  const index_t half = (size_ - 1) / 2;
  const Dtype cache_ratio =
      Dtype(2) * alpha_ * beta_ / static_cast<Dtype>(size_);
  for (index_t x = 0; x < width_; ++x) {
    const index_t pos = y * width_ + x;
    for (index_t c = 0; c < channels_; ++c) {
      // dL/dx(c) = dL/dy(c) * scale(c)^-beta
      //          - cache_ratio * x(c) * sum_{c': c in window(c')}
      //              dL/dy(c') * y(c') / scale(c')
      const index_t lo = std::max<index_t>(0, c - half);
      const index_t hi = std::min(channels_ - 1, c + half);
      Dtype accum = 0;
      for (index_t cc = lo; cc <= hi; ++cc) {
        const index_t idx = cc * plane + pos;
        accum += top_diff_n[idx] * top_n[idx] / scale_n[idx];
      }
      const index_t idx = c * plane + pos;
      bottom_diff_n[idx] =
          top_diff_n[idx] * std::pow(scale_n[idx], -beta_) -
          cache_ratio * bottom_n[idx] * accum;
    }
  }
}

template <typename Dtype>
void LRNLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  Dtype* scale_data = scale_.mutable_cpu_data();
  const index_t sample = channels_ * height_ * width_;
  for (index_t n = 0; n < num_; ++n) {
    for (index_t y = 0; y < height_; ++y) {
      ForwardRow(bottom_data + n * sample, top_data + n * sample,
                 scale_data + n * sample, y);
    }
  }
}

template <typename Dtype>
template <typename RowFn>
void LRNLayer<Dtype>::ForEachRowChunk(
    std::initializer_list<std::pair<const Dtype*, const char*>> written,
    const RowFn& row) const {
  // LRN coalesces (N, H) — the channel window forbids splitting C, so its
  // data-thread distribution differs from conv/pool neighbours (the
  // locality effect discussed in §4.2.1). Without coalescing, each work
  // item is a whole sample.
  const bool coalesce = parallel::Parallel::Config().coalesce;
  const index_t per_item = coalesce ? 1 : height_;
  const index_t plane = height_ * width_;
  const parallel::CoalescedRange rows{num_, height_};
  parallel::ForEachChunk(
      coalesce ? rows.total() : num_, [&](const parallel::Chunk& c) {
        for (index_t r = c.begin * per_item; r < c.end * per_item; ++r) {
          const auto idx = rows.Decode(r);  // idx[0] = n, idx[1] = y
          const index_t n = idx[0], y = idx[1];
          row(n, y);
          // A row touches every channel plane: one strided slab each.
          for (index_t ch = 0; c.checking() && ch < channels_; ++ch) {
            const index_t at = (n * channels_ + ch) * plane + y * width_;
            for (const auto& [base, blob] : written) {
              c.Wrote(base, blob, at, at + width_);
            }
          }
        }
      });
}

template <typename Dtype>
void LRNLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  Dtype* scale_data = scale_.mutable_cpu_data();
  const index_t sample = channels_ * height_ * width_;
  ForEachRowChunk({{top_data, "top.data"}, {scale_data, "scale"}},
                  [&](index_t n, index_t y) {
                    ForwardRow(bottom_data + n * sample,
                               top_data + n * sample, scale_data + n * sample,
                               y);
                  });
}

template <typename Dtype>
void LRNLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                   const std::vector<bool>& propagate_down,
                                   const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* scale_data = scale_.cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t sample = channels_ * height_ * width_;
  for (index_t n = 0; n < num_; ++n) {
    for (index_t y = 0; y < height_; ++y) {
      BackwardRow(bottom_data + n * sample, top_data + n * sample,
                  scale_data + n * sample, top_diff + n * sample,
                  bottom_diff + n * sample, y);
    }
  }
}

template <typename Dtype>
void LRNLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* scale_data = scale_.cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t sample = channels_ * height_ * width_;
  ForEachRowChunk({{bottom_diff, "bottom.diff"}},
                  [&](index_t n, index_t y) {
                    BackwardRow(bottom_data + n * sample,
                                top_data + n * sample, scale_data + n * sample,
                                top_diff + n * sample,
                                bottom_diff + n * sample, y);
                  });
}

template class LRNLayer<float>;
template class LRNLayer<double>;

}  // namespace cgdnn
