#include "cgdnn/net/net.hpp"

#include <sstream>

#include "cgdnn/trace/trace.hpp"

namespace cgdnn {

namespace {

std::string SplitLayerName(const std::string& layer_name,
                           const std::string& blob_name) {
  return blob_name + "_" + layer_name + "_split";
}

std::string SplitBlobName(const std::string& layer_name,
                          const std::string& blob_name, int k) {
  std::ostringstream os;
  os << blob_name << "_" << layer_name << "_split_" << k;
  return os.str();
}

}  // namespace

template <typename Dtype>
proto::NetParameter Net<Dtype>::FilterNet(const proto::NetParameter& param,
                                          Phase phase) {
  proto::NetParameter out = param;
  out.layer.clear();
  for (const auto& lp : param.layer) {
    if (lp.include_phase && *lp.include_phase != phase) continue;
    out.layer.push_back(lp);
  }
  return out;
}

template <typename Dtype>
proto::NetParameter Net<Dtype>::InsertSplits(const proto::NetParameter& param) {
  using Ref = std::pair<std::size_t, std::size_t>;  // (layer idx, top idx)
  std::map<std::string, Ref> producer;
  std::map<Ref, int> consumers;
  for (std::size_t li = 0; li < param.layer.size(); ++li) {
    const auto& lp = param.layer[li];
    for (const auto& bottom : lp.bottom) {
      const auto it = producer.find(bottom);
      CGDNN_CHECK(it != producer.end())
          << "unknown bottom blob '" << bottom << "' for layer '" << lp.name
          << "'";
      ++consumers[it->second];
    }
    for (std::size_t ti = 0; ti < lp.top.size(); ++ti) {
      producer[lp.top[ti]] = {li, ti};
    }
  }

  proto::NetParameter out = param;
  out.layer.clear();
  producer.clear();
  std::map<Ref, int> consumed;
  std::map<Ref, std::string> producing_layer_name;
  for (std::size_t li = 0; li < param.layer.size(); ++li) {
    proto::LayerParameter lp = param.layer[li];
    for (auto& bottom : lp.bottom) {
      const Ref ref = producer.at(bottom);
      if (consumers.at(ref) > 1) {
        bottom = SplitBlobName(producing_layer_name.at(ref), bottom,
                               consumed[ref]++);
      }
    }
    out.layer.push_back(lp);
    for (std::size_t ti = 0; ti < lp.top.size(); ++ti) {
      const Ref ref{li, ti};
      producer[lp.top[ti]] = ref;
      producing_layer_name[ref] = lp.name;
      const auto it = consumers.find(ref);
      if (it != consumers.end() && it->second > 1) {
        proto::LayerParameter split;
        split.type = "Split";
        split.name = SplitLayerName(lp.name, lp.top[ti]);
        split.bottom.push_back(lp.top[ti]);
        for (int k = 0; k < it->second; ++k) {
          split.top.push_back(SplitBlobName(lp.name, lp.top[ti], k));
        }
        out.layer.push_back(split);
      }
    }
  }
  return out;
}

template <typename Dtype>
Net<Dtype>::Net(const proto::NetParameter& param, Phase phase)
    : phase_(phase) {
  Init(InsertSplits(FilterNet(param, phase)));
}

template <typename Dtype>
void Net<Dtype>::Init(const proto::NetParameter& param) {
  name_ = param.name;
  forward_name_ = name_ + ".forward";
  backward_name_ = name_ + ".backward";
  force_backward_ = param.force_backward;

  for (std::size_t li = 0; li < param.layer.size(); ++li) {
    proto::LayerParameter lp = param.layer[li];
    lp.include_phase = phase_;  // layers inherit the net's phase
    layers_.push_back(LayerRegistry<Dtype>::Get().Create(lp));
    layer_names_.push_back(lp.name);
    layer_names_index_[lp.name] = li;
    bottom_vecs_.emplace_back();
    bottom_id_vecs_.emplace_back();
    bottom_need_backward_.emplace_back();
    top_vecs_.emplace_back();
    top_id_vecs_.emplace_back();

    for (std::size_t bi = 0; bi < lp.bottom.size(); ++bi) {
      AppendBottom(lp, bi);
    }
    for (std::size_t ti = 0; ti < lp.top.size(); ++ti) {
      AppendTop(lp, ti);
    }

    layers_[li]->SetUp(bottom_vecs_[li], top_vecs_[li]);
    AppendParams(lp, li);

    // A layer needs backward if any of its inputs carries gradient, if it
    // owns learnable parameters, or if it produces a loss.
    bool need_backward = !layers_[li]->blobs().empty();
    for (const bool bnb : bottom_need_backward_[li]) need_backward |= bnb;
    for (std::size_t ti = 0; ti < top_vecs_[li].size(); ++ti) {
      need_backward |= layers_[li]->loss(static_cast<int>(ti)) != Dtype(0);
    }
    layer_need_backward_.push_back(need_backward);
    for (const std::size_t top_id : top_id_vecs_[li]) {
      if (blob_need_backward_.size() <= top_id) {
        blob_need_backward_.resize(top_id + 1, false);
      }
      blob_need_backward_[top_id] = need_backward;
    }
  }

  // Backward-prune layers that do not contribute to any loss: traverse in
  // reverse, tracking which blobs are "under" a loss.
  std::vector<bool> blob_under_loss(blobs_.size(), false);
  for (std::size_t li = layers_.size(); li-- > 0;) {
    bool contributes = false;
    for (std::size_t ti = 0; ti < top_vecs_[li].size(); ++ti) {
      if (layers_[li]->loss(static_cast<int>(ti)) != Dtype(0) ||
          blob_under_loss[top_id_vecs_[li][ti]]) {
        contributes = true;
      }
    }
    if (!contributes && !force_backward_) {
      layer_need_backward_[li] = false;
    }
    if (layer_need_backward_[li]) {
      for (const std::size_t bid : bottom_id_vecs_[li]) {
        blob_under_loss[bid] = true;
      }
    }
  }
}

template <typename Dtype>
void Net<Dtype>::AppendBottom(const proto::LayerParameter& lp,
                              std::size_t bottom_index) {
  const std::string& name = lp.bottom[bottom_index];
  const auto it = available_blobs_.find(name);
  CGDNN_CHECK(it != available_blobs_.end())
      << "unknown bottom blob '" << name << "' for layer '" << lp.name << "'"
      << " (produced tops are consumed exactly once after split insertion)";
  const std::size_t blob_id = it->second;
  const std::size_t li = layers_.size() - 1;
  bottom_vecs_[li].push_back(blobs_[blob_id].get());
  bottom_id_vecs_[li].push_back(blob_id);
  const bool need =
      (blob_id < blob_need_backward_.size() && blob_need_backward_[blob_id]) ||
      (force_backward_ &&
       layers_[li]->AllowForceBackward(static_cast<int>(bottom_index)));
  bottom_need_backward_[li].push_back(need);
  available_blobs_.erase(it);
}

template <typename Dtype>
void Net<Dtype>::AppendTop(const proto::LayerParameter& lp,
                           std::size_t top_index) {
  const std::string& name = lp.top[top_index];
  const std::size_t li = layers_.size() - 1;
  const bool in_place = top_index < lp.bottom.size() &&
                        name == lp.bottom[top_index];
  if (in_place) {
    // In-place computation (e.g. ReLU on ip1): reuse the bottom blob.
    const std::size_t blob_id = bottom_id_vecs_[li][top_index];
    top_vecs_[li].push_back(blobs_[blob_id].get());
    top_id_vecs_[li].push_back(blob_id);
    available_blobs_[name] = blob_id;
    return;
  }
  auto blob = std::make_shared<Blob<Dtype>>();
  const std::size_t blob_id = blobs_.size();
  blobs_.push_back(blob);
  blob_names_.push_back(name);
  blob_names_index_[name] = blob_id;
  top_vecs_[li].push_back(blob.get());
  top_id_vecs_[li].push_back(blob_id);
  available_blobs_[name] = blob_id;
}

template <typename Dtype>
void Net<Dtype>::AppendParams(const proto::LayerParameter& lp,
                              std::size_t layer_index) {
  auto& layer = layers_[layer_index];
  for (std::size_t j = 0; j < layer->blobs().size(); ++j) {
    proto::ParamSpec spec;
    if (j < lp.param.size()) spec = lp.param[j];
    learnable_params_.push_back(layer->blobs()[j].get());
    params_lr_.push_back(spec.lr_mult);
    params_weight_decay_.push_back(spec.decay_mult);
    layer->set_param_propagate_down(static_cast<int>(j), spec.lr_mult != 0.0);
  }
}

template <typename Dtype>
Dtype Net<Dtype>::Forward() {
  TRACE_SCOPE("net", forward_name_.c_str());
  Dtype loss = 0;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    // Fused consumers run inside their producer's output loop (a planner-
    // installed FusedEpilogue); skipping them here is what removes the
    // extra memory round-trip. They still run their own Backward.
    if (layer_forward_skip(li)) continue;
    loss += layers_[li]->Forward(bottom_vecs_[li], top_vecs_[li]);
  }
  return loss;
}

template <typename Dtype>
void Net<Dtype>::Backward() {
  TRACE_SCOPE("net", backward_name_.c_str());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    if (!layer_need_backward_[li]) continue;
    layers_[li]->Backward(top_vecs_[li], bottom_need_backward_[li],
                          bottom_vecs_[li]);
  }
}

template <typename Dtype>
void Net<Dtype>::set_layer_forward_skip(std::size_t li, bool skip) {
  CGDNN_CHECK_LT(li, layers_.size());
  if (layer_forward_skip_.size() < layers_.size()) {
    layer_forward_skip_.assign(layers_.size(), false);
  }
  layer_forward_skip_[li] = skip;
}

template <typename Dtype>
Dtype Net<Dtype>::ForwardBackward() {
  const Dtype loss = Forward();
  Backward();
  return loss;
}

template <typename Dtype>
void Net<Dtype>::ClearParamDiffs() {
  for (Blob<Dtype>* param : learnable_params_) param->set_diff(Dtype(0));
}

template <typename Dtype>
void Net<Dtype>::ShareTrainedLayersWith(const Net& other) {
  for (std::size_t li = 0; li < other.layers_.size(); ++li) {
    const auto it = layer_names_index_.find(other.layer_names_[li]);
    if (it == layer_names_index_.end()) continue;
    auto& target = layers_[it->second];
    const auto& source = other.layers_[li];
    if (source->blobs().empty()) continue;
    CGDNN_CHECK_EQ(target->blobs().size(), source->blobs().size())
        << "incompatible parameter counts for shared layer '"
        << other.layer_names_[li] << "'";
    for (std::size_t j = 0; j < source->blobs().size(); ++j) {
      CGDNN_CHECK(target->blobs()[j]->shape() == source->blobs()[j]->shape())
          << "incompatible parameter shapes for shared layer '"
          << other.layer_names_[li] << "'";
      target->blobs()[j]->ShareData(*source->blobs()[j]);
    }
  }
}

template <typename Dtype>
bool Net<Dtype>::has_blob(const std::string& name) const {
  return blob_names_index_.contains(name);
}

template <typename Dtype>
const std::shared_ptr<Blob<Dtype>>& Net<Dtype>::blob_by_name(
    const std::string& name) const {
  const auto it = blob_names_index_.find(name);
  CGDNN_CHECK(it != blob_names_index_.end()) << "unknown blob: " << name;
  return blobs_[it->second];
}

template <typename Dtype>
bool Net<Dtype>::has_layer(const std::string& name) const {
  return layer_names_index_.contains(name);
}

template <typename Dtype>
const std::shared_ptr<Layer<Dtype>>& Net<Dtype>::layer_by_name(
    const std::string& name) const {
  const auto it = layer_names_index_.find(name);
  CGDNN_CHECK(it != layer_names_index_.end()) << "unknown layer: " << name;
  return layers_[it->second];
}

template <typename Dtype>
std::size_t Net<Dtype>::MemoryUsedBytes() const {
  std::size_t bytes = 0;
  for (const auto& blob : blobs_) bytes += 2 * blob->data_bytes();  // data+diff
  return bytes + ParamMemoryBytes();
}

template <typename Dtype>
std::size_t Net<Dtype>::ParamMemoryBytes() const {
  std::size_t bytes = 0;
  for (const Blob<Dtype>* param : learnable_params_) {
    bytes += 2 * param->data_bytes();
  }
  return bytes;
}

template class Net<float>;
template class Net<double>;

}  // namespace cgdnn
