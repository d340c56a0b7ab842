#include "cgdnn/layers/batch_norm_layer.hpp"

#include <cmath>

#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

namespace {
// The channel partition's writes are strided: one slab per sample covering
// the chunk's channels.
void DeclareChannelSlabs(const parallel::Chunk& c, const void* blob,
                         const char* name, index_t num, index_t channels,
                         index_t spatial) {
  if (!c.checking()) return;
  for (index_t n = 0; n < num; ++n) {
    c.Wrote(blob, name, (n * channels + c.begin) * spatial,
            (n * channels + c.end) * spatial);
  }
}
}  // namespace

template <typename Dtype>
void BatchNormLayer<Dtype>::LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                                       const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.batch_norm_param;
  use_global_stats_ =
      p.use_global_stats.value_or(this->phase_ == Phase::kTest);
  moving_average_fraction_ = static_cast<Dtype>(p.moving_average_fraction);
  eps_ = static_cast<Dtype>(p.eps);
  channels_ = bottom[0]->channels();
  if (this->blobs_.empty()) {
    this->blobs_.resize(3);
    this->blobs_[0] =
        std::make_shared<Blob<Dtype>>(std::vector<index_t>{channels_});
    this->blobs_[1] =
        std::make_shared<Blob<Dtype>>(std::vector<index_t>{channels_});
    this->blobs_[2] = std::make_shared<Blob<Dtype>>(std::vector<index_t>{1});
    for (auto& blob : this->blobs_) blob->set_data(Dtype(0));
  }
  // Statistics are not gradient-trained.
  this->param_propagate_down_.assign(3, false);
}

template <typename Dtype>
void BatchNormLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                    const std::vector<Blob<Dtype>*>& top) {
  CGDNN_CHECK_EQ(bottom[0]->channels(), channels_)
      << "channel count changed for " << this->layer_param_.name;
  num_ = bottom[0]->num();
  spatial_ = bottom[0]->count(2);
  top[0]->ReshapeLike(*bottom[0]);
  mean_.Reshape({channels_});
  inv_std_.Reshape({channels_});
}

template <typename Dtype>
void BatchNormLayer<Dtype>::ForwardChannels(const Dtype* x, Dtype* y,
                                            Dtype* mean, Dtype* inv_std,
                                            index_t c0, index_t c1) {
  const index_t m = num_ * spatial_;
  const Dtype* stored_mean = this->blobs_[0]->cpu_data();
  const Dtype* stored_var = this->blobs_[1]->cpu_data();
  const Dtype scale_accum = this->blobs_[2]->cpu_data()[0];
  const Dtype scale =
      scale_accum == Dtype(0) ? Dtype(0) : Dtype(1) / scale_accum;

  for (index_t c = c0; c < c1; ++c) {
    if (use_global_stats_) {
      mean[c] = stored_mean[c] * scale;
      const Dtype var = stored_var[c] * scale;
      inv_std[c] = Dtype(1) / std::sqrt(var + eps_);
    } else {
      // Batch statistics over (N, spatial) in serial order: the per-channel
      // accumulation is identical no matter which thread owns the channel.
      Dtype sum = 0;
      for (index_t n = 0; n < num_; ++n) {
        const Dtype* xc = x + (n * channels_ + c) * spatial_;
        for (index_t s = 0; s < spatial_; ++s) sum += xc[s];
      }
      const Dtype mu = sum / static_cast<Dtype>(m);
      Dtype sq = 0;
      for (index_t n = 0; n < num_; ++n) {
        const Dtype* xc = x + (n * channels_ + c) * spatial_;
        for (index_t s = 0; s < spatial_; ++s) {
          const Dtype d = xc[s] - mu;
          sq += d * d;
        }
      }
      mean[c] = mu;
      inv_std[c] = Dtype(1) / std::sqrt(sq / static_cast<Dtype>(m) + eps_);
    }
    for (index_t n = 0; n < num_; ++n) {
      const Dtype* xc = x + (n * channels_ + c) * spatial_;
      Dtype* yc = y + (n * channels_ + c) * spatial_;
      for (index_t s = 0; s < spatial_; ++s) {
        yc[s] = (xc[s] - mean[c]) * inv_std[c];
      }
    }
  }
}

template <typename Dtype>
void BatchNormLayer<Dtype>::UpdateRunningStats() {
  const index_t m = num_ * spatial_;
  const Dtype bias_correction =
      m > 1 ? static_cast<Dtype>(m) / static_cast<Dtype>(m - 1) : Dtype(1);
  Dtype* stored_mean = this->blobs_[0]->mutable_cpu_data();
  Dtype* stored_var = this->blobs_[1]->mutable_cpu_data();
  Dtype* scale_accum = this->blobs_[2]->mutable_cpu_data();
  const Dtype* mean = mean_.cpu_data();
  const Dtype* inv_std = inv_std_.cpu_data();
  scale_accum[0] = scale_accum[0] * moving_average_fraction_ + Dtype(1);
  for (index_t c = 0; c < channels_; ++c) {
    const Dtype var = Dtype(1) / (inv_std[c] * inv_std[c]) - eps_;
    stored_mean[c] = stored_mean[c] * moving_average_fraction_ + mean[c];
    stored_var[c] =
        stored_var[c] * moving_average_fraction_ + bias_correction * var;
  }
}

template <typename Dtype>
void BatchNormLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                        const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  ForwardChannels(x, y, mean_.mutable_cpu_data(), inv_std_.mutable_cpu_data(),
                  0, channels_);
  if (!use_global_stats_) UpdateRunningStats();
}

template <typename Dtype>
void BatchNormLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  Dtype* mean = mean_.mutable_cpu_data();      // resolved before the region
  Dtype* inv_std = inv_std_.mutable_cpu_data();
  parallel::ForEachChunk(
      channels_, [&](const parallel::Chunk& c) {
        ForwardChannels(x, y, mean, inv_std, c.begin, c.end);
        c.Wrote(mean, "mean", c.begin, c.end);
        c.Wrote(inv_std, "inv_std", c.begin, c.end);
        DeclareChannelSlabs(c, y, "top.data", num_, channels_, spatial_);
      });
  if (!use_global_stats_) UpdateRunningStats();
}

template <typename Dtype>
void BatchNormLayer<Dtype>::BackwardChannels(const Dtype* x, const Dtype* dy,
                                             Dtype* dx, index_t c0,
                                             index_t c1) const {
  const index_t m = num_ * spatial_;
  const Dtype* mean = mean_.cpu_data();
  const Dtype* inv_std = inv_std_.cpu_data();
  for (index_t c = c0; c < c1; ++c) {
    if (use_global_stats_) {
      for (index_t n = 0; n < num_; ++n) {
        const Dtype* dyc = dy + (n * channels_ + c) * spatial_;
        Dtype* dxc = dx + (n * channels_ + c) * spatial_;
        for (index_t s = 0; s < spatial_; ++s) dxc[s] = dyc[s] * inv_std[c];
      }
      continue;
    }
    // dx = inv_std * (dy - mean(dy) - x_hat * mean(dy * x_hat))
    Dtype sum_dy = 0, sum_dy_xhat = 0;
    for (index_t n = 0; n < num_; ++n) {
      const Dtype* xc = x + (n * channels_ + c) * spatial_;
      const Dtype* dyc = dy + (n * channels_ + c) * spatial_;
      for (index_t s = 0; s < spatial_; ++s) {
        const Dtype xhat = (xc[s] - mean[c]) * inv_std[c];
        sum_dy += dyc[s];
        sum_dy_xhat += dyc[s] * xhat;
      }
    }
    const Dtype mean_dy = sum_dy / static_cast<Dtype>(m);
    const Dtype mean_dy_xhat = sum_dy_xhat / static_cast<Dtype>(m);
    for (index_t n = 0; n < num_; ++n) {
      const Dtype* xc = x + (n * channels_ + c) * spatial_;
      const Dtype* dyc = dy + (n * channels_ + c) * spatial_;
      Dtype* dxc = dx + (n * channels_ + c) * spatial_;
      for (index_t s = 0; s < spatial_; ++s) {
        const Dtype xhat = (xc[s] - mean[c]) * inv_std[c];
        dxc[s] = inv_std[c] * (dyc[s] - mean_dy - xhat * mean_dy_xhat);
      }
    }
  }
}

template <typename Dtype>
void BatchNormLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  CGDNN_CHECK(bottom[0] != top[0])
      << "BatchNorm backward needs the original input: run out-of-place";
  BackwardChannels(bottom[0]->cpu_data(), top[0]->cpu_diff(),
                   bottom[0]->mutable_cpu_diff(), 0, channels_);
}

template <typename Dtype>
void BatchNormLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  CGDNN_CHECK(bottom[0] != top[0])
      << "BatchNorm backward needs the original input: run out-of-place";
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  parallel::ForEachChunk(channels_, [&](const parallel::Chunk& c) {
    BackwardChannels(x, dy, dx, c.begin, c.end);
    DeclareChannelSlabs(c, dx, "bottom.diff", num_, channels_, spatial_);
  });
}

template class BatchNormLayer<float>;
template class BatchNormLayer<double>;

}  // namespace cgdnn
