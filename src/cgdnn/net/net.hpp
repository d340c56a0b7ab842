// Net: the layer DAG plus the forward/backward drivers of Algorithm 1.
//
// Construction follows Caffe's Net::Init: layers are instantiated in
// prototxt order, tops/bottoms are wired by blob name (with in-place reuse
// when a layer names its top after its bottom), Split layers are inserted
// wherever one top feeds several consumers, and backward-need flags are
// propagated from the loss layers.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class Net {
 public:
  Net(const proto::NetParameter& param, Phase phase);

  /// One forward pass; returns the total weighted loss.
  Dtype Forward();
  /// One backward pass (requires a preceding Forward).
  void Backward();
  /// Forward + Backward, returning the loss (one solver iteration's work,
  /// lines 3-10 of Algorithm 1).
  Dtype ForwardBackward();

  /// Zeroes the diffs of all learnable parameters (start of an iteration).
  void ClearParamDiffs();

  /// Shares learnable parameters with a compatible net (train/test pair):
  /// layers are matched by name and their param blobs aliased.
  void ShareTrainedLayersWith(const Net& other);

  const std::vector<std::shared_ptr<Layer<Dtype>>>& layers() const {
    return layers_;
  }
  const std::vector<std::string>& layer_names() const { return layer_names_; }
  const std::vector<std::shared_ptr<Blob<Dtype>>>& blobs() const {
    return blobs_;
  }
  const std::vector<std::string>& blob_names() const { return blob_names_; }

  bool has_blob(const std::string& name) const;
  const std::shared_ptr<Blob<Dtype>>& blob_by_name(
      const std::string& name) const;
  bool has_layer(const std::string& name) const;
  const std::shared_ptr<Layer<Dtype>>& layer_by_name(
      const std::string& name) const;

  /// All learnable parameter blobs, with their per-blob multipliers.
  const std::vector<Blob<Dtype>*>& learnable_params() const {
    return learnable_params_;
  }
  const std::vector<double>& params_lr() const { return params_lr_; }
  const std::vector<double>& params_weight_decay() const {
    return params_weight_decay_;
  }

  const std::vector<std::vector<Blob<Dtype>*>>& bottom_vecs() const {
    return bottom_vecs_;
  }
  const std::vector<std::vector<Blob<Dtype>*>>& top_vecs() const {
    return top_vecs_;
  }

  const std::string& name() const { return name_; }
  Phase phase() const { return phase_; }

  // ---- planner hooks (src/cgdnn/plan/) -----------------------------------

  /// Per-layer blob-id wiring and backward-need flags, exposed read-only for
  /// the planner's lifetime analysis and fusion legality checks.
  const std::vector<std::vector<std::size_t>>& top_id_vecs() const {
    return top_id_vecs_;
  }
  const std::vector<std::vector<std::size_t>>& bottom_id_vecs() const {
    return bottom_id_vecs_;
  }
  const std::vector<bool>& layer_need_backward() const {
    return layer_need_backward_;
  }
  const std::vector<bool>& blob_need_backward() const {
    return blob_need_backward_;
  }
  /// Per layer, per bottom: whether backward computes that bottom's diff.
  const std::vector<std::vector<bool>>& bottom_need_backward() const {
    return bottom_need_backward_;
  }

  /// Marks layer `li` as fused into its producer: Forward() skips it (its
  /// work happens in the producer's FusedEpilogue); Backward still runs it.
  void set_layer_forward_skip(std::size_t li, bool skip);
  bool layer_forward_skip(std::size_t li) const {
    return li < layer_forward_skip_.size() && layer_forward_skip_[li];
  }

  /// Keeps the execution plan's owned state (activation arena storage,
  /// epilogues) alive as long as the net; opaque to the net itself.
  void AttachPlanState(std::shared_ptr<void> state) {
    plan_state_ = std::move(state);
  }
  const std::shared_ptr<void>& plan_state() const { return plan_state_; }

  /// Bytes held by all intermediate blobs (the "total memory" of the
  /// paper's §3.2.1 memory accounting).
  std::size_t MemoryUsedBytes() const;
  /// Bytes held by learnable parameters (subset of the above).
  std::size_t ParamMemoryBytes() const;

  /// Splits shared tops: the preprocessing Caffe applies before wiring.
  /// Public for tests.
  static proto::NetParameter InsertSplits(const proto::NetParameter& param);
  /// Drops layers whose include phase excludes `phase`.
  static proto::NetParameter FilterNet(const proto::NetParameter& param,
                                       Phase phase);

 private:
  void Init(const proto::NetParameter& param);
  void AppendTop(const proto::LayerParameter& lp, std::size_t top_index);
  void AppendBottom(const proto::LayerParameter& lp, std::size_t bottom_index);
  void AppendParams(const proto::LayerParameter& lp, std::size_t layer_index);

  std::string name_;
  // Span names of the whole-net passes, built once in Init.
  std::string forward_name_;
  std::string backward_name_;
  Phase phase_;

  std::vector<std::shared_ptr<Layer<Dtype>>> layers_;
  std::vector<std::string> layer_names_;
  std::map<std::string, std::size_t> layer_names_index_;

  std::vector<std::shared_ptr<Blob<Dtype>>> blobs_;
  std::vector<std::string> blob_names_;
  std::map<std::string, std::size_t> blob_names_index_;

  std::vector<std::vector<Blob<Dtype>*>> bottom_vecs_;
  std::vector<std::vector<std::size_t>> bottom_id_vecs_;
  std::vector<std::vector<bool>> bottom_need_backward_;
  std::vector<std::vector<Blob<Dtype>*>> top_vecs_;
  std::vector<std::vector<std::size_t>> top_id_vecs_;

  std::vector<bool> layer_need_backward_;
  std::vector<bool> blob_need_backward_;  // indexed by blob id

  std::vector<Blob<Dtype>*> learnable_params_;
  std::vector<double> params_lr_;
  std::vector<double> params_weight_decay_;

  // Scratch for blob availability during wiring: name -> blob id of the
  // most recent producer.
  std::map<std::string, std::size_t> available_blobs_;

  std::vector<bool> layer_forward_skip_;  // true: fused into producer
  std::shared_ptr<void> plan_state_;      // owned by the execution plan

  bool force_backward_ = false;
};

}  // namespace cgdnn
