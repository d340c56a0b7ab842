// SoftmaxLayer: channel-wise softmax (numerically stabilized by max
// subtraction), applied independently at each (outer, inner) position.
#pragma once

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class SoftmaxLayer : public Layer<Dtype> {
 public:
  explicit SoftmaxLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "Softmax"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override;
  void Forward_cpu_parallel(const std::vector<Blob<Dtype>*>& bottom,
                            const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu_parallel(const std::vector<Blob<Dtype>*>& top,
                             const std::vector<bool>& propagate_down,
                             const std::vector<Blob<Dtype>*>& bottom) override;

 private:
  void ForwardPosition(const Dtype* bottom_data, Dtype* top_data,
                       index_t outer, index_t inner) const;
  void BackwardPosition(const Dtype* top_data, const Dtype* top_diff,
                        Dtype* bottom_diff, index_t outer, index_t inner) const;
  /// Runs fn(outer, inner) for every position in one parallel region and
  /// declares each position's channel writes to `written`.
  template <typename PositionFn>
  void ForEachPositionChunk(const Dtype* written, const char* blob,
                            const PositionFn& fn) const;

  index_t outer_num_ = 0;
  index_t channels_ = 0;
  index_t inner_num_ = 0;
};

}  // namespace cgdnn
