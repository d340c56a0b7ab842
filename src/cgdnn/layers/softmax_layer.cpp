#include "cgdnn/layers/softmax_layer.hpp"

#include <cmath>

#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void SoftmaxLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.softmax_param.axis);
  outer_num_ = bottom[0]->count(0, axis);
  channels_ = bottom[0]->shape(axis);
  inner_num_ = bottom[0]->count(axis + 1);
  top[0]->ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::ForwardPosition(const Dtype* bottom_data,
                                          Dtype* top_data, index_t outer,
                                          index_t inner) const {
  const index_t base = outer * channels_ * inner_num_ + inner;
  Dtype max_val = bottom_data[base];
  for (index_t c = 1; c < channels_; ++c) {
    max_val = std::max(max_val, bottom_data[base + c * inner_num_]);
  }
  Dtype sum = 0;
  for (index_t c = 0; c < channels_; ++c) {
    const Dtype e = std::exp(bottom_data[base + c * inner_num_] - max_val);
    top_data[base + c * inner_num_] = e;
    sum += e;
  }
  for (index_t c = 0; c < channels_; ++c) {
    top_data[base + c * inner_num_] /= sum;
  }
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::BackwardPosition(const Dtype* top_data,
                                           const Dtype* top_diff,
                                           Dtype* bottom_diff, index_t outer,
                                           index_t inner) const {
  const index_t base = outer * channels_ * inner_num_ + inner;
  // dx = (dy - dot(dy, y)) * y
  Dtype dot = 0;
  for (index_t c = 0; c < channels_; ++c) {
    const index_t idx = base + c * inner_num_;
    dot += top_diff[idx] * top_data[idx];
  }
  for (index_t c = 0; c < channels_; ++c) {
    const index_t idx = base + c * inner_num_;
    bottom_diff[idx] = (top_diff[idx] - dot) * top_data[idx];
  }
}

template <typename Dtype>
template <typename PositionFn>
void SoftmaxLayer<Dtype>::ForEachPositionChunk(const Dtype* written,
                                               const char* blob,
                                               const PositionFn& fn) const {
  // Coalesced (outer, inner) loop; a position's channels are strided by
  // inner_num_, so each one is declared as its own element.
  const parallel::CoalescedRange range{outer_num_, inner_num_};
  parallel::ForEachChunk(
      range.total(), [&](const parallel::Chunk& c) {
        for (index_t civ = c.begin; civ < c.end; ++civ) {
          const auto idx = range.Decode(civ);
          const index_t outer = idx[0], inner = idx[1];
          fn(outer, inner);
          const index_t base = outer * channels_ * inner_num_ + inner;
          for (index_t ch = 0; c.checking() && ch < channels_; ++ch) {
            c.Wrote(written, blob, base + ch * inner_num_,
                    base + ch * inner_num_ + 1);
          }
        }
      });
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  for (index_t o = 0; o < outer_num_; ++o) {
    for (index_t i = 0; i < inner_num_; ++i) {
      ForwardPosition(bottom_data, top_data, o, i);
    }
  }
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  ForEachPositionChunk(top_data, "top.data",
                       [&](index_t outer, index_t inner) {
                         ForwardPosition(bottom_data, top_data, outer, inner);
                       });
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                       const std::vector<bool>& propagate_down,
                                       const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  for (index_t o = 0; o < outer_num_; ++o) {
    for (index_t i = 0; i < inner_num_; ++i) {
      BackwardPosition(top_data, top_diff, bottom_diff, o, i);
    }
  }
}

template <typename Dtype>
void SoftmaxLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  const Dtype* top_data = top[0]->cpu_data();
  const Dtype* top_diff = top[0]->cpu_diff();
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  ForEachPositionChunk(bottom_diff, "bottom.diff",
                       [&](index_t outer, index_t inner) {
                         BackwardPosition(top_data, top_diff, bottom_diff,
                                          outer, inner);
                       });
}

template class SoftmaxLayer<float>;
template class SoftmaxLayer<double>;

}  // namespace cgdnn
