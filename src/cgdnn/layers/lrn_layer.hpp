// LRNLayer: local response normalization across channels (the CIFAR-10
// network's norm1/norm2 layers). For each position (n, y, x):
//   scale(c) = k + (alpha / local_size) * sum_{c' in window(c)} x(c')^2
//   y(c) = x(c) * scale(c)^(-beta)
//
// The paper calls out LRN as the layer whose data-thread distribution
// differs from its neighbours (it coalesces (N, H) rather than (N, C)
// because the channel window couples channels), causing the conv2 locality
// penalty discussed in §4.2.1.
#pragma once

#include <initializer_list>
#include <utility>

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class LRNLayer : public Layer<Dtype> {
 public:
  explicit LRNLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "LRN"; }
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
  /// Forward for one (n, y) row across all channels and x.
  void ForwardRow(const Dtype* bottom_n, Dtype* top_n, Dtype* scale_n,
                  index_t y) const;
  /// Backward for one (n, y) row.
  void BackwardRow(const Dtype* bottom_n, const Dtype* top_n,
                   const Dtype* scale_n, const Dtype* top_diff_n,
                   Dtype* bottom_diff_n, index_t y) const;
  /// Runs row(n, y) for every (n, y) row in one parallel region — the
  /// coalesced (N, H) loop, or the bare N loop without coalescing — and
  /// declares each row's strided writes to the `written` blobs.
  template <typename RowFn>
  void ForEachRowChunk(
      std::initializer_list<std::pair<const Dtype*, const char*>> written,
      const RowFn& row) const;

  index_t size_ = 5;
  Dtype alpha_ = 1, beta_ = Dtype(0.75), k_ = 1;
  index_t num_ = 0, channels_ = 0, height_ = 0, width_ = 0;
  Blob<Dtype> scale_;  // stored for the backward pass
};

}  // namespace cgdnn
