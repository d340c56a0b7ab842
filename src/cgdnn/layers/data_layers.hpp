// Input layers.
//
// DataLayer feeds batches from a Dataset (synthetic or file-backed; see
// cgdnn/data). It executes SEQUENTIALLY by design — the paper keeps Caffe's
// data layers serial and identifies the resulting first-conv-layer locality
// penalty as one of the coarse-grain limiting factors (§4.3 "Locality
// between layers"), visible in the measured conv1 rows of Figs 5/8.
//
// DummyDataLayer produces filler-defined constant blobs (tests/benches).
#pragma once

#include <memory>

#include "cgdnn/data/dataset.hpp"
#include "cgdnn/data/transformer.hpp"
#include "cgdnn/layers/layer.hpp"

namespace cgdnn {

template <typename Dtype>
class DataLayer : public Layer<Dtype> {
 public:
  explicit DataLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "Data"; }
  int ExactNumBottomBlobs() const override { return 0; }
  int MinTopBlobs() const override { return 1; }
  int MaxTopBlobs() const override { return 2; }
  bool AllowForceBackward(int /*bottom_index*/) const override {
    return false;
  }

  /// Position of the next sample in the epoch stream (tests).
  index_t cursor() const { return cursor_; }

  // The epoch cursor and augmentation ordinal advance every batch; both
  // must survive a checkpoint/resume for the sample stream to continue
  // where it stopped.
  void ExportRuntimeState(std::vector<std::uint64_t>& state) const override {
    state.push_back(static_cast<std::uint64_t>(cursor_));
    state.push_back(ordinal_);
  }
  void ImportRuntimeState(const std::vector<std::uint64_t>& state) override {
    CGDNN_CHECK_EQ(state.size(), 2u)
        << "Data layer runtime state must be {cursor, ordinal}";
    CGDNN_CHECK_LT(state[0], static_cast<std::uint64_t>(dataset_->num))
        << "restored data cursor out of range";
    cursor_ = static_cast<index_t>(state[0]);
    ordinal_ = state[1];
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& /*propagate_down*/,
                    const std::vector<Blob<Dtype>*>& /*bottom*/) override {}
  // No Forward_cpu_parallel override: data layers stay sequential (paper).

 private:
  std::shared_ptr<const data::Dataset> dataset_;
  std::unique_ptr<data::DataTransformer> transformer_;
  index_t batch_size_ = 0;
  index_t cursor_ = 0;
  std::uint64_t ordinal_ = 0;  // global sample counter for augmentation
  std::vector<float> transform_buf_;
};

/// MemoryDataLayer: serves batches from user-provided arrays (Caffe's
/// MemoryDataLayer). Call Reset() with sample-major data before the first
/// forward; the layer walks the array in batch_size steps, wrapping. The
/// caller keeps ownership and must keep the arrays alive. Like every data
/// layer it executes sequentially (paper §4.3).
template <typename Dtype>
class MemoryDataLayer : public Layer<Dtype> {
 public:
  explicit MemoryDataLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override;

  const char* type() const override { return "MemoryData"; }
  int ExactNumBottomBlobs() const override { return 0; }
  int MinTopBlobs() const override { return 1; }
  int MaxTopBlobs() const override { return 2; }
  bool AllowForceBackward(int /*bottom_index*/) const override {
    return false;
  }

  /// Points the layer at `n` samples (each channels*height*width values,
  /// sample-major) and, optionally, `n` labels. Resets the cursor.
  void Reset(const Dtype* data, const Dtype* labels, index_t n);

  index_t batch_size() const { return batch_size_; }

  void ExportRuntimeState(std::vector<std::uint64_t>& state) const override {
    state.push_back(static_cast<std::uint64_t>(cursor_));
  }
  void ImportRuntimeState(const std::vector<std::uint64_t>& state) override {
    CGDNN_CHECK_EQ(state.size(), 1u)
        << "MemoryData layer runtime state must be {cursor}";
    cursor_ = static_cast<index_t>(state[0]);
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override;
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& /*propagate_down*/,
                    const std::vector<Blob<Dtype>*>& /*bottom*/) override {}

 private:
  index_t batch_size_ = 0;
  index_t channels_ = 0, height_ = 0, width_ = 0;
  const Dtype* data_ = nullptr;
  const Dtype* labels_ = nullptr;
  index_t num_samples_ = 0;
  index_t cursor_ = 0;
};

template <typename Dtype>
class DummyDataLayer : public Layer<Dtype> {
 public:
  explicit DummyDataLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}

  void LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                  const std::vector<Blob<Dtype>*>& top) override;
  void Reshape(const std::vector<Blob<Dtype>*>& /*bottom*/,
               const std::vector<Blob<Dtype>*>& /*top*/) override {}

  const char* type() const override { return "DummyData"; }
  int ExactNumBottomBlobs() const override { return 0; }
  int MinTopBlobs() const override { return 1; }
  bool AllowForceBackward(int /*bottom_index*/) const override {
    return false;
  }

 protected:
  void Forward_cpu(const std::vector<Blob<Dtype>*>& /*bottom*/,
                   const std::vector<Blob<Dtype>*>& /*top*/) override {}
  void Backward_cpu(const std::vector<Blob<Dtype>*>& /*top*/,
                    const std::vector<bool>& /*propagate_down*/,
                    const std::vector<Blob<Dtype>*>& /*bottom*/) override {}
};

}  // namespace cgdnn
