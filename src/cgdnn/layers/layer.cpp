#include "cgdnn/layers/layer.hpp"

#include <algorithm>

#include "cgdnn/blas/blas.hpp"

namespace cgdnn {

template <typename Dtype>
Dtype Layer<Dtype>::Forward(const std::vector<Blob<Dtype>*>& bottom,
                            const std::vector<Blob<Dtype>*>& top) {
  parallel::LayerPhaseScope scope(forward_name_.c_str(),
                                  parallel::LayerPhase::kForward);
  Reshape(bottom, top);
  if (parallel::Parallel::CoarseGrain()) {
    Forward_cpu_parallel(bottom, top);
  } else {
    Forward_cpu(bottom, top);
  }
  // Weighted loss: Caffe convention — a top blob contributing to the loss
  // carries its (constant) loss weight in its diff plane.
  Dtype total = 0;
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (loss(static_cast<int>(i)) == Dtype(0)) continue;
    const index_t count = top[i]->count();
    total += blas::dot(count, top[i]->cpu_data(), top[i]->cpu_diff());
  }
  return total;
}

template <typename Dtype>
void Layer<Dtype>::Backward(const std::vector<Blob<Dtype>*>& top,
                            const std::vector<bool>& propagate_down,
                            const std::vector<Blob<Dtype>*>& bottom) {
  CGDNN_CHECK_EQ(propagate_down.size(), bottom.size());
  parallel::LayerPhaseScope scope(backward_name_.c_str(),
                                  parallel::LayerPhase::kBackward);
  if (parallel::Parallel::CoarseGrain()) {
    Backward_cpu_parallel(top, propagate_down, bottom);
  } else {
    Backward_cpu(top, propagate_down, bottom);
  }
}

template <typename Dtype>
void Layer<Dtype>::SetLossWeights(const std::vector<Blob<Dtype>*>& top) {
  const std::size_t num_loss_weights = layer_param_.loss_weight.size();
  if (num_loss_weights > 0) {
    CGDNN_CHECK_EQ(top.size(), num_loss_weights)
        << "loss_weight must be unspecified or specified once per top blob";
  }
  for (std::size_t i = 0; i < top.size(); ++i) {
    const Dtype weight =
        num_loss_weights > 0
            ? static_cast<Dtype>(layer_param_.loss_weight[i])
            : DefaultLossWeight(static_cast<int>(i));
    if (weight == Dtype(0)) continue;
    set_loss(static_cast<int>(i), weight);
    top[i]->set_diff(weight);
  }
}

template <typename Dtype>
void Layer<Dtype>::CheckBlobCounts(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) const {
  const auto nb = static_cast<int>(bottom.size());
  const auto nt = static_cast<int>(top.size());
  if (ExactNumBottomBlobs() >= 0) {
    CGDNN_CHECK_EQ(nb, ExactNumBottomBlobs())
        << type() << " layer takes exactly " << ExactNumBottomBlobs()
        << " bottom blob(s)";
  }
  if (MinBottomBlobs() >= 0) {
    CGDNN_CHECK_GE(nb, MinBottomBlobs())
        << type() << " layer takes at least " << MinBottomBlobs()
        << " bottom blob(s)";
  }
  if (MaxBottomBlobs() >= 0) {
    CGDNN_CHECK_LE(nb, MaxBottomBlobs())
        << type() << " layer takes at most " << MaxBottomBlobs()
        << " bottom blob(s)";
  }
  if (ExactNumTopBlobs() >= 0) {
    CGDNN_CHECK_EQ(nt, ExactNumTopBlobs())
        << type() << " layer produces exactly " << ExactNumTopBlobs()
        << " top blob(s)";
  }
  if (MinTopBlobs() >= 0) {
    CGDNN_CHECK_GE(nt, MinTopBlobs())
        << type() << " layer produces at least " << MinTopBlobs()
        << " top blob(s)";
  }
  if (MaxTopBlobs() >= 0) {
    CGDNN_CHECK_LE(nt, MaxTopBlobs())
        << type() << " layer produces at most " << MaxTopBlobs()
        << " top blob(s)";
  }
}

template <typename Dtype>
LayerRegistry<Dtype>& LayerRegistry<Dtype>::Get() {
  static LayerRegistry registry;
  return registry;
}

template <typename Dtype>
void LayerRegistry<Dtype>::Register(const std::string& type, Creator creator) {
  for (const auto& [name, _] : registry_) {
    CGDNN_CHECK(name != type) << "layer type registered twice: " << type;
  }
  registry_.emplace_back(type, creator);
}

template <typename Dtype>
std::shared_ptr<Layer<Dtype>> LayerRegistry<Dtype>::Create(
    const proto::LayerParameter& param) {
  EnsureLayersRegistered();
  for (const auto& [name, creator] : registry_) {
    if (name == param.type) return creator(param);
  }
  throw Error(__FILE__, __LINE__,
              "unknown layer type '" + param.type + "' (layer '" + param.name +
                  "')");
}

template <typename Dtype>
std::vector<std::string> LayerRegistry<Dtype>::Types() const {
  std::vector<std::string> types;
  types.reserve(registry_.size());
  for (const auto& [name, _] : registry_) types.push_back(name);
  std::sort(types.begin(), types.end());
  return types;
}

template class Layer<float>;
template class Layer<double>;
template class LayerRegistry<float>;
template class LayerRegistry<double>;

}  // namespace cgdnn
