// Layer: the unit of network computation (paper §2.1.2). Every layer
// transforms bottom blobs into top blobs (forward) and propagates gradients
// from top diffs to bottom diffs and parameter diffs (backward).
//
// Each concrete layer provides up to four implementations:
//   * Forward_cpu / Backward_cpu — the sequential loop nests of
//     Algorithms 2/3 (also the correctness reference), and
//   * Forward_cpu_parallel / Backward_cpu_parallel — the coarse-grain
//     batch-level versions of Algorithms 4/5: one parallel::ForEachChunk /
//     ForEachChunkPrivate call (parallel/region.hpp) around the per-sample
//     body, which owns the coalesced static partition, per-thread
//     privatization and the ordered gradient merge.
// Forward()/Backward() open the phase's parallel::LayerPhaseScope — the one
// recorder of the phase's time, span, imbalance and flight-recorder
// position, named "<layer>.forward|backward" — and dispatch on the global
// parallel::Parallel config;
// a layer without a parallel specialization falls back to the serial code,
// which is exactly the "network-agnostic" property: new layer types work
// unchanged, and gain batch-parallelism when their author wraps the sample
// loop in one helper call.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cgdnn/core/blob.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/layers/fused_op.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/instrument.hpp"
#include "cgdnn/proto/params.hpp"

namespace cgdnn {

template <typename Dtype>
class Layer {
 public:
  explicit Layer(const proto::LayerParameter& param)
      : layer_param_(param),
        phase_(param.include_phase.value_or(Phase::kTrain)),
        forward_name_(parallel::LayerPhaseKey(param.name,
                                              parallel::LayerPhase::kForward)),
        backward_name_(parallel::LayerPhaseKey(
            param.name, parallel::LayerPhase::kBackward)) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Common setup: checks blob counts, runs layer-specific setup, shapes the
  /// tops, and installs loss weights.
  void SetUp(const std::vector<Blob<Dtype>*>& bottom,
             const std::vector<Blob<Dtype>*>& top) {
    CheckBlobCounts(bottom, top);
    LayerSetUp(bottom, top);
    Reshape(bottom, top);
    SetLossWeights(top);
  }

  virtual void LayerSetUp(const std::vector<Blob<Dtype>*>& /*bottom*/,
                          const std::vector<Blob<Dtype>*>& /*top*/) {}
  virtual void Reshape(const std::vector<Blob<Dtype>*>& bottom,
                       const std::vector<Blob<Dtype>*>& top) = 0;

  /// Runs the forward pass (serial or coarse-grain per the global parallel
  /// config) and returns the total weighted loss produced by this layer.
  Dtype Forward(const std::vector<Blob<Dtype>*>& bottom,
                const std::vector<Blob<Dtype>*>& top);

  /// Runs the backward pass. propagate_down[i] controls whether the
  /// gradient w.r.t. bottom[i] is computed.
  void Backward(const std::vector<Blob<Dtype>*>& top,
                const std::vector<bool>& propagate_down,
                const std::vector<Blob<Dtype>*>& bottom);

  /// Learnable parameter blobs (weights, biases).
  std::vector<std::shared_ptr<Blob<Dtype>>>& blobs() { return blobs_; }
  const std::vector<std::shared_ptr<Blob<Dtype>>>& blobs() const {
    return blobs_;
  }

  const proto::LayerParameter& layer_param() const { return layer_param_; }
  virtual const char* type() const = 0;

  // Blob count contract (−1 = unconstrained), mirroring Caffe.
  virtual int ExactNumBottomBlobs() const { return -1; }
  virtual int MinBottomBlobs() const { return -1; }
  virtual int MaxBottomBlobs() const { return -1; }
  virtual int ExactNumTopBlobs() const { return -1; }
  virtual int MinTopBlobs() const { return -1; }
  virtual int MaxTopBlobs() const { return -1; }

  /// True if the layer can never propagate to this bottom (e.g. labels).
  virtual bool AllowForceBackward(int /*bottom_index*/) const { return true; }

  Dtype loss(int top_index) const {
    return static_cast<std::size_t>(top_index) < loss_.size()
               ? loss_[static_cast<std::size_t>(top_index)]
               : Dtype(0);
  }
  void set_loss(int top_index, Dtype value) {
    if (loss_.size() <= static_cast<std::size_t>(top_index)) {
      loss_.resize(static_cast<std::size_t>(top_index) + 1, Dtype(0));
    }
    loss_[static_cast<std::size_t>(top_index)] = value;
  }

  bool param_propagate_down(int index) const {
    return static_cast<std::size_t>(index) < param_propagate_down_.size()
               ? param_propagate_down_[static_cast<std::size_t>(index)]
               : false;
  }
  void set_param_propagate_down(int index, bool value) {
    if (param_propagate_down_.size() <= static_cast<std::size_t>(index)) {
      param_propagate_down_.resize(static_cast<std::size_t>(index) + 1, true);
    }
    param_propagate_down_[static_cast<std::size_t>(index)] = value;
  }

  Phase phase() const { return phase_; }
  void set_phase(Phase phase) { phase_ = phase; }

  /// True for producers whose forward loops apply a planner-installed
  /// FusedEpilogue to each output chunk (conv/ip/pooling). The planner only
  /// fuses consumers into layers that opt in here.
  virtual bool SupportsFusedEpilogue() const { return false; }
  /// Installs (or clears, with nullptr) the fused elementwise chain this
  /// layer applies to its forward output. Set by plan::ApplyPlan from serial
  /// code; the layer reads it inside Forward only.
  void set_fused_epilogue(std::shared_ptr<const FusedEpilogue<Dtype>> ep) {
    fused_epilogue_ = std::move(ep);
  }
  const FusedEpilogue<Dtype>* fused_epilogue() const {
    return fused_epilogue_.get();
  }

  /// Mutable runtime state beyond blobs() — data cursors, dropout pass
  /// counters — exported as opaque u64 words for checkpointing. A resumed
  /// net must replay training bit-identically, so any layer whose forward
  /// pass depends on how many batches it has already served must export
  /// that state here. The base layer has none.
  virtual void ExportRuntimeState(std::vector<std::uint64_t>& /*state*/) const {
  }
  /// Restores state captured by ExportRuntimeState. Implementations must
  /// consume exactly the words they exported and reject anything else.
  virtual void ImportRuntimeState(const std::vector<std::uint64_t>& state) {
    CGDNN_CHECK(state.empty())
        << "layer type " << type() << " has no runtime state but got "
        << state.size() << " words";
  }

 protected:
  // Serial reference implementations (Algorithms 2/3).
  virtual void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                           const std::vector<Blob<Dtype>*>& top) = 0;
  virtual void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                            const std::vector<bool>& propagate_down,
                            const std::vector<Blob<Dtype>*>& bottom) = 0;

  // Coarse-grain batch-level implementations (Algorithms 4/5). The default
  // delegates to the serial code — the network-agnostic fallback.
  virtual void Forward_cpu_parallel(const std::vector<Blob<Dtype>*>& bottom,
                                    const std::vector<Blob<Dtype>*>& top) {
    Forward_cpu(bottom, top);
  }
  virtual void Backward_cpu_parallel(const std::vector<Blob<Dtype>*>& top,
                                     const std::vector<bool>& propagate_down,
                                     const std::vector<Blob<Dtype>*>& bottom) {
    Backward_cpu(top, propagate_down, bottom);
  }

  /// Default loss weight for top blob `index` (loss layers return 1 for
  /// their first top).
  virtual Dtype DefaultLossWeight(int /*index*/) const { return Dtype(0); }

  void SetLossWeights(const std::vector<Blob<Dtype>*>& top);
  void CheckBlobCounts(const std::vector<Blob<Dtype>*>& bottom,
                       const std::vector<Blob<Dtype>*>& top) const;

  proto::LayerParameter layer_param_;
  Phase phase_;
  std::vector<std::shared_ptr<Blob<Dtype>>> blobs_;
  std::vector<bool> param_propagate_down_;
  std::vector<Dtype> loss_;
  std::shared_ptr<const FusedEpilogue<Dtype>> fused_epilogue_;

 private:
  // Phase names, built once: Forward/Backward build no string per pass.
  std::string forward_name_;
  std::string backward_name_;
};

// ----------------------------------------------------------------- Registry

template <typename Dtype>
class LayerRegistry {
 public:
  using Creator =
      std::shared_ptr<Layer<Dtype>> (*)(const proto::LayerParameter&);

  static LayerRegistry& Get();

  void Register(const std::string& type, Creator creator);
  std::shared_ptr<Layer<Dtype>> Create(const proto::LayerParameter& param);
  std::vector<std::string> Types() const;

 private:
  std::vector<std::pair<std::string, Creator>> registry_;
};

/// Idempotently registers every built-in layer for float and double.
/// LayerRegistry::Create calls it automatically, so library users never
/// need to; it is public for tests that enumerate the registry.
void EnsureLayersRegistered();

}  // namespace cgdnn
