#include "cgdnn/layers/loss_layers.hpp"

#include <cmath>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

// --------------------------------------------------------- SoftmaxWithLoss

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::Reshape(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  LossLayer<Dtype>::Reshape(bottom, top);
  num_ = bottom[0]->num();
  channels_ = bottom[0]->count() / num_;
  CGDNN_CHECK_GT(channels_, 1) << "need at least two classes";
  CGDNN_CHECK_EQ(bottom[1]->count(), num_)
      << "label blob must hold one label per sample";
  prob_.Reshape({num_, channels_});
  per_sample_loss_.assign(static_cast<std::size_t>(num_), Dtype(0));
}

template <typename Dtype>
Dtype SoftmaxWithLossLayer<Dtype>::Normalizer() const {
  return this->layer_param_.loss_param.normalize ? static_cast<Dtype>(num_)
                                                 : Dtype(1);
}

template <typename Dtype>
Dtype SoftmaxWithLossLayer<Dtype>::ForwardSample(const Dtype* bottom_data,
                                                 const Dtype* label,
                                                 Dtype* prob_data,
                                                 index_t n) {
  const Dtype* in = bottom_data + n * channels_;
  Dtype* p = prob_data + n * channels_;
  Dtype max_val = in[0];
  for (index_t c = 1; c < channels_; ++c) max_val = std::max(max_val, in[c]);
  Dtype sum = 0;
  for (index_t c = 0; c < channels_; ++c) {
    p[c] = std::exp(in[c] - max_val);
    sum += p[c];
  }
  for (index_t c = 0; c < channels_; ++c) p[c] /= sum;

  const auto lab = static_cast<index_t>(label[n]);
  const auto& ignore = this->layer_param_.loss_param.ignore_label;
  if (ignore && *ignore == lab) return Dtype(0);
  CGDNN_CHECK_GE(lab, 0) << "label out of range";
  CGDNN_CHECK_LT(lab, channels_) << "label out of range";
  // Clamp to avoid -inf on (numerically) zero probabilities, as Caffe does.
  return -std::log(std::max(p[lab], Dtype(1e-20)));
}

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* label = bottom[1]->cpu_data();
  Dtype* prob_data = prob_.mutable_cpu_data();
  Dtype loss = 0;
  for (index_t n = 0; n < num_; ++n) {
    loss += ForwardSample(bottom_data, label, prob_data, n);
  }
  top[0]->mutable_cpu_data()[0] = loss / Normalizer();
}

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* label = bottom[1]->cpu_data();
  Dtype* prob_data = prob_.mutable_cpu_data();  // resolved before the region
  Dtype* per_sample = per_sample_loss_.data();
  parallel::ForEachChunk(
      num_, [&](const parallel::Chunk& c) {
        for (index_t n = c.begin; n < c.end; ++n) {
          per_sample[n] = ForwardSample(bottom_data, label, prob_data, n);
        }
        c.Wrote(per_sample, "per_sample_loss", c.begin, c.end);
        c.Wrote(prob_data, "prob", c.begin * channels_, c.end * channels_);
      });
  // Sample-ordered reduction: identical bit pattern to the serial loop.
  Dtype loss = 0;
  for (index_t n = 0; n < num_; ++n) loss += per_sample[n];
  top[0]->mutable_cpu_data()[0] = loss / Normalizer();
}

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::BackwardSample(const Dtype* label,
                                                 Dtype* bottom_diff, index_t n,
                                                 Dtype scale) const {
  const Dtype* p = prob_.cpu_data() + n * channels_;
  Dtype* d = bottom_diff + n * channels_;
  const auto lab = static_cast<index_t>(label[n]);
  const auto& ignore = this->layer_param_.loss_param.ignore_label;
  if (ignore && *ignore == lab) {
    for (index_t c = 0; c < channels_; ++c) d[c] = Dtype(0);
    return;
  }
  for (index_t c = 0; c < channels_; ++c) d[c] = p[c] * scale;
  d[lab] -= scale;
}

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  CGDNN_CHECK(!propagate_down[1])
      << "SoftmaxWithLoss cannot backpropagate to labels";
  if (!propagate_down[0]) return;
  const Dtype* label = bottom[1]->cpu_data();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const Dtype scale = top[0]->cpu_diff()[0] / Normalizer();
  for (index_t n = 0; n < num_; ++n) {
    BackwardSample(label, bottom_diff, n, scale);
  }
}

template <typename Dtype>
void SoftmaxWithLossLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  CGDNN_CHECK(!propagate_down[1])
      << "SoftmaxWithLoss cannot backpropagate to labels";
  if (!propagate_down[0]) return;
  const Dtype* label = bottom[1]->cpu_data();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const Dtype scale = top[0]->cpu_diff()[0] / Normalizer();
  parallel::ForEachChunk(
      num_, [&](const parallel::Chunk& c) {
        for (index_t n = c.begin; n < c.end; ++n) {
          BackwardSample(label, bottom_diff, n, scale);
        }
        c.Wrote(bottom_diff, "bottom.diff", c.begin * channels_,
                c.end * channels_);
      });
}

// ------------------------------------------------------------ EuclideanLoss

template <typename Dtype>
void EuclideanLossLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                        const std::vector<Blob<Dtype>*>& top) {
  LossLayer<Dtype>::Reshape(bottom, top);
  CGDNN_CHECK_EQ(bottom[0]->count(), bottom[1]->count())
      << "inputs must have the same count";
  diff_.ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void EuclideanLossLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const index_t count = bottom[0]->count();
  blas::sub(count, bottom[0]->cpu_data(), bottom[1]->cpu_data(),
            diff_.mutable_cpu_data());
  const Dtype dot = blas::dot(count, diff_.cpu_data(), diff_.cpu_data());
  top[0]->mutable_cpu_data()[0] =
      dot / static_cast<Dtype>(bottom[0]->num()) / Dtype(2);
}

template <typename Dtype>
void EuclideanLossLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  for (int i = 0; i < 2; ++i) {
    if (!propagate_down[static_cast<std::size_t>(i)]) continue;
    const Dtype sign = i == 0 ? Dtype(1) : Dtype(-1);
    const Dtype alpha =
        sign * top[0]->cpu_diff()[0] / static_cast<Dtype>(bottom[0]->num());
    blas::axpby(bottom[static_cast<std::size_t>(i)]->count(), alpha,
                diff_.cpu_data(), Dtype(0),
                bottom[static_cast<std::size_t>(i)]->mutable_cpu_diff());
  }
}

template class LossLayer<float>;
template class LossLayer<double>;
template class SoftmaxWithLossLayer<float>;
template class SoftmaxWithLossLayer<double>;
template class EuclideanLossLayer<float>;
template class EuclideanLossLayer<double>;

}  // namespace cgdnn
