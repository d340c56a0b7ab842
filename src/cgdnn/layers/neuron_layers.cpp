#include "cgdnn/layers/neuron_layers.hpp"

#include <cmath>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

// -------------------------------------------------------------------- ReLU

template <typename Dtype>
void ReLULayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) {
    top_data[i] = bottom_data[i] > 0
                      ? bottom_data[i]
                      : negative_slope_ * bottom_data[i];
  }
}

template <typename Dtype>
void ReLULayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  const Dtype slope = negative_slope_;
  parallel::ForEachElement(count, top_data, "top.data", [&](index_t i) {
    top_data[i] = bottom_data[i] > 0 ? bottom_data[i] : slope * bottom_data[i];
  });
}

template <typename Dtype>
void ReLULayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                    const std::vector<bool>& propagate_down,
                                    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) {
    bottom_diff[i] =
        top_diff[i] * (bottom_data[i] > 0 ? Dtype(1) : negative_slope_);
  }
}

template <typename Dtype>
void ReLULayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  const Dtype slope = negative_slope_;
  parallel::ForEachElement(count, bottom_diff, "bottom.diff", [&](index_t i) {
    bottom_diff[i] = top_diff[i] * (bottom_data[i] > 0 ? Dtype(1) : slope);
  });
}

// ----------------------------------------------------------------- Sigmoid

namespace {
template <typename Dtype>
inline Dtype SigmoidFn(Dtype x) {
  return Dtype(0.5) * std::tanh(Dtype(0.5) * x) + Dtype(0.5);
}
}  // namespace

template <typename Dtype>
void SigmoidLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) top_data[i] = SigmoidFn(bottom_data[i]);
}

template <typename Dtype>
void SigmoidLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, top_data, "top.data", [&](index_t i) {
    top_data[i] = SigmoidFn(bottom_data[i]);
  });
}

template <typename Dtype>
void SigmoidLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) {
    bottom_diff[i] = top_diff[i] * top_data[i] * (Dtype(1) - top_data[i]);
  }
}

template <typename Dtype>
void SigmoidLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, bottom_diff, "bottom.diff", [&](index_t i) {
    bottom_diff[i] = top_diff[i] * top_data[i] * (Dtype(1) - top_data[i]);
  });
}

// -------------------------------------------------------------------- TanH

template <typename Dtype>
void TanHLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) top_data[i] = std::tanh(bottom_data[i]);
}

template <typename Dtype>
void TanHLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, top_data, "top.data", [&](index_t i) {
    top_data[i] = std::tanh(bottom_data[i]);
  });
}

template <typename Dtype>
void TanHLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                    const std::vector<bool>& propagate_down,
                                    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) {
    bottom_diff[i] = top_diff[i] * (Dtype(1) - top_data[i] * top_data[i]);
  }
}

template <typename Dtype>
void TanHLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, bottom_diff, "bottom.diff", [&](index_t i) {
    bottom_diff[i] = top_diff[i] * (Dtype(1) - top_data[i] * top_data[i]);
  });
}

// ----------------------------------------------------------------- Dropout

template <typename Dtype>
DropoutLayer<Dtype>::DropoutLayer(const proto::LayerParameter& param)
    : NeuronLayer<Dtype>(param),
      ratio_(static_cast<Dtype>(param.dropout_param.dropout_ratio)),
      base_(GlobalRng().NextU64(), /*stream=*/0xD80),
      mask_() {
  CGDNN_CHECK_GT(ratio_, Dtype(0));
  CGDNN_CHECK_LT(ratio_, Dtype(1));
  scale_ = Dtype(1) / (Dtype(1) - ratio_);
}

template <typename Dtype>
void DropoutLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  NeuronLayer<Dtype>::Reshape(bottom, top);
  mask_.resize(static_cast<std::size_t>(bottom[0]->count()));
}

template <typename Dtype>
bool DropoutLayer<Dtype>::MaskKeep(index_t i) const {
  // (pass, element) -> independent stream; a single draw decides the mask.
  Rng rng = base_.Split(HashCombine64(pass_counter_, static_cast<std::uint64_t>(i)));
  return rng.Uniform() >= static_cast<double>(ratio_);
}

template <typename Dtype>
void DropoutLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  if (this->phase_ == Phase::kTrain) {
    ++pass_counter_;
    for (index_t i = 0; i < count; ++i) {
      mask_[static_cast<std::size_t>(i)] = MaskKeep(i) ? scale_ : Dtype(0);
      top_data[i] = bottom_data[i] * mask_[static_cast<std::size_t>(i)];
    }
  } else {
    blas::copy(count, bottom_data, top_data);
  }
}

template <typename Dtype>
void DropoutLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  if (this->phase_ == Phase::kTrain) {
    ++pass_counter_;
    Dtype* mask = mask_.data();
    parallel::ForEachChunk(
        count, [&](const parallel::Chunk& c) {
          for (index_t i = c.begin; i < c.end; ++i) {
            // The counter-based mask stream makes this loop order-free:
            // element i's mask does not depend on which thread evaluates it.
            mask[i] = MaskKeep(i) ? scale_ : Dtype(0);
            top_data[i] = bottom_data[i] * mask[i];
          }
          c.Wrote(mask, "mask", c.begin, c.end);
          c.Wrote(top_data, "top.data", c.begin, c.end);
        });
  } else {
    blas::copy(count, bottom_data, top_data);
  }
}

template <typename Dtype>
void DropoutLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  if (this->phase_ == Phase::kTrain) {
    for (index_t i = 0; i < count; ++i) {
      bottom_diff[i] = top_diff[i] * mask_[static_cast<std::size_t>(i)];
    }
  } else {
    blas::copy(count, top_diff, bottom_diff);
  }
}

template <typename Dtype>
void DropoutLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  if (this->phase_ == Phase::kTrain) {
    const Dtype* mask = mask_.data();
    parallel::ForEachElement(
        count, bottom_diff, "bottom.diff",
        [&](index_t i) { bottom_diff[i] = top_diff[i] * mask[i]; });
  } else {
    blas::copy(count, top_diff, bottom_diff);
  }
}

#define CGDNN_INSTANTIATE_NEURON(Layer) \
  template class Layer<float>;          \
  template class Layer<double>

CGDNN_INSTANTIATE_NEURON(NeuronLayer);
CGDNN_INSTANTIATE_NEURON(ReLULayer);
CGDNN_INSTANTIATE_NEURON(SigmoidLayer);
CGDNN_INSTANTIATE_NEURON(TanHLayer);
CGDNN_INSTANTIATE_NEURON(DropoutLayer);

}  // namespace cgdnn
