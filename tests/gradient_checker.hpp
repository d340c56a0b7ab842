// Numerical gradient checking (ported from Caffe's GradientChecker): for a
// layer L with scalar objective J = sum(top .* top_diff_seed), compare the
// analytic gradients produced by Backward against central finite
// differences of Forward. Verifies bottom diffs and parameter diffs — the
// single strongest correctness oracle for layer implementations.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/layers/layer.hpp"
#include "cgdnn/parallel/context.hpp"

namespace cgdnn::testing {

template <typename Dtype>
class GradientChecker {
 public:
  GradientChecker(Dtype stepsize, Dtype threshold)
      : stepsize_(stepsize), threshold_(threshold) {}

  /// Exclude parameter blobs from checking (layers whose state blobs are
  /// not gradient-trained, e.g. BatchNorm running statistics).
  void set_check_params(bool check) { check_params_ = check; }

  /// Checks gradients w.r.t. every bottom blob and every param blob,
  /// exhaustively over top elements if `check_bottom` < -1 is not given.
  /// `check_bottom` == -1 checks all bottoms; otherwise only that index.
  void CheckGradientExhaustive(Layer<Dtype>& layer,
                               const std::vector<Blob<Dtype>*>& bottom,
                               const std::vector<Blob<Dtype>*>& top,
                               int check_bottom = -1) {
    layer.SetUp(bottom, top);
    CGDNN_CHECK_GT(top.size(), 0u);
    for (std::size_t i = 0; i < top.size(); ++i) {
      for (index_t j = 0; j < top[i]->count(); ++j) {
        CheckGradientSingle(layer, bottom, top, check_bottom,
                            static_cast<int>(i), j);
      }
    }
  }

  /// Checks a loss layer (scalar top whose gradient seed is the loss
  /// weight; Caffe convention with a +2 kink margin check skipped).
  void CheckGradientEltwise(Layer<Dtype>& layer,
                            const std::vector<Blob<Dtype>*>& bottom,
                            const std::vector<Blob<Dtype>*>& top) {
    layer.SetUp(bottom, top);
    // Element-wise layers: d top[i] / d bottom[j] == 0 for i != j, so a
    // single backward with an all-ones seed checks every element at once.
    CheckGradientSingle(layer, bottom, top, -1, 0, -1);
  }

  /// top_data_id == -1 seeds every element of top[top_id] with 1.
  ///
  /// Checks both implementations of the layer: the serial reference
  /// (Forward_cpu/Backward_cpu, at 1 thread) and the partitioned
  /// Forward_cpu_parallel/Backward_cpu_parallel at a fixed 3 threads —
  /// fixed rather than the host's core count, so which code is checked
  /// never depends on the machine, and a 1-core host still runs the
  /// partitioned path.
  void CheckGradientSingle(Layer<Dtype>& layer,
                           const std::vector<Blob<Dtype>*>& bottom,
                           const std::vector<Blob<Dtype>*>& top,
                           int check_bottom, int top_id, index_t top_data_id) {
    for (const int threads : {1, 3}) {
      parallel::ParallelConfig cfg = parallel::Parallel::Config();
      cfg.mode = parallel::ExecutionMode::kCoarseGrain;
      cfg.num_threads = threads;
      parallel::Parallel::Scope scope(cfg);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CheckGradientAt(layer, bottom, top, check_bottom, top_id, top_data_id);
    }
  }

 private:
  void CheckGradientAt(Layer<Dtype>& layer,
                       const std::vector<Blob<Dtype>*>& bottom,
                       const std::vector<Blob<Dtype>*>& top, int check_bottom,
                       int top_id, index_t top_data_id) {
    // Gather all blobs whose gradient we verify.
    std::vector<Blob<Dtype>*> blobs_to_check;
    std::vector<bool> propagate_down(bottom.size(), check_bottom == -1);
    if (check_params_) {
      for (const auto& param : layer.blobs()) {
        param->set_diff(Dtype(0));
        blobs_to_check.push_back(param.get());
      }
    }
    if (check_bottom == -1) {
      for (Blob<Dtype>* b : bottom) blobs_to_check.push_back(b);
    } else if (check_bottom >= 0) {
      CGDNN_CHECK_LT(static_cast<std::size_t>(check_bottom), bottom.size());
      blobs_to_check.push_back(bottom[static_cast<std::size_t>(check_bottom)]);
      propagate_down[static_cast<std::size_t>(check_bottom)] = true;
    }
    CGDNN_CHECK_GT(blobs_to_check.size(), 0u) << "no blobs to check";

    // Analytic gradients.
    layer.Forward(bottom, top);
    SeedTopDiffs(layer, top, top_id, top_data_id);
    std::vector<std::vector<Dtype>> analytic(blobs_to_check.size());
    layer.Backward(top, propagate_down, bottom);
    for (std::size_t b = 0; b < blobs_to_check.size(); ++b) {
      const Dtype* diff = blobs_to_check[b]->cpu_diff();
      analytic[b].assign(diff, diff + blobs_to_check[b]->count());
    }

    // Finite differences.
    for (std::size_t b = 0; b < blobs_to_check.size(); ++b) {
      Blob<Dtype>* blob = blobs_to_check[b];
      for (index_t i = 0; i < blob->count(); ++i) {
        const Dtype saved = blob->cpu_data()[i];
        blob->mutable_cpu_data()[i] = saved + stepsize_;
        layer.Forward(bottom, top);
        const Dtype plus = Objective(layer, top, top_id, top_data_id);
        blob->mutable_cpu_data()[i] = saved - stepsize_;
        layer.Forward(bottom, top);
        const Dtype minus = Objective(layer, top, top_id, top_data_id);
        blob->mutable_cpu_data()[i] = saved;

        const Dtype estimated = (plus - minus) / (stepsize_ * Dtype(2));
        const Dtype computed = analytic[b][static_cast<std::size_t>(i)];
        const Dtype scale = std::max<Dtype>(
            std::max(std::abs(computed), std::abs(estimated)), Dtype(1));
        EXPECT_NEAR(computed, estimated, threshold_ * scale)
            << "blob " << b << " element " << i << " top_id " << top_id
            << " top_data_id " << top_data_id;
      }
    }
  }

  void SeedTopDiffs(Layer<Dtype>& layer, const std::vector<Blob<Dtype>*>& top,
                    int top_id, index_t top_data_id) {
    for (std::size_t i = 0; i < top.size(); ++i) {
      if (layer.loss(static_cast<int>(i)) != Dtype(0)) continue;  // loss seeds itself
      Dtype* diff = top[i]->mutable_cpu_diff();
      std::fill(diff, diff + top[i]->count(), Dtype(0));
      if (static_cast<int>(i) == top_id) {
        if (top_data_id < 0) {
          std::fill(diff, diff + top[i]->count(), Dtype(1));
        } else {
          diff[top_data_id] = Dtype(1);
        }
      }
    }
  }

  Dtype Objective(Layer<Dtype>& layer, const std::vector<Blob<Dtype>*>& top,
                  int top_id, index_t top_data_id) {
    // Loss layers: the objective is the weighted loss itself.
    Dtype loss = 0;
    bool has_loss = false;
    for (std::size_t i = 0; i < top.size(); ++i) {
      const Dtype w = layer.loss(static_cast<int>(i));
      if (w != Dtype(0)) {
        has_loss = true;
        for (index_t j = 0; j < top[i]->count(); ++j) {
          loss += w * top[i]->cpu_data()[j];
        }
      }
    }
    if (has_loss) return loss;
    // Otherwise: the seeded element(s).
    const Blob<Dtype>* t = top[static_cast<std::size_t>(top_id)];
    if (top_data_id < 0) {
      Dtype sum = 0;
      for (index_t j = 0; j < t->count(); ++j) sum += t->cpu_data()[j];
      return sum;
    }
    return t->cpu_data()[top_data_id];
  }

  Dtype stepsize_;
  Dtype threshold_;
  bool check_params_ = true;
};

/// Fills a blob with uniform values in [lo, hi] from a fixed-seed stream.
template <typename Dtype>
void FillUniform(Blob<Dtype>* blob, Dtype lo, Dtype hi,
                 std::uint64_t seed = 1701) {
  Rng rng(seed);
  Dtype* data = blob->mutable_cpu_data();
  for (index_t i = 0; i < blob->count(); ++i) {
    data[i] = static_cast<Dtype>(
        rng.Uniform(static_cast<double>(lo), static_cast<double>(hi)));
  }
}

/// As FillUniform, but pushes values within `margin` of `kink` outward —
/// finite differences are invalid across non-differentiable points (ReLU's
/// hinge, MAX pooling ties).
template <typename Dtype>
void FillUniformAvoiding(Blob<Dtype>* blob, Dtype lo, Dtype hi, Dtype kink,
                         Dtype margin, std::uint64_t seed = 1701) {
  FillUniform(blob, lo, hi, seed);
  Dtype* data = blob->mutable_cpu_data();
  for (index_t i = 0; i < blob->count(); ++i) {
    if (std::abs(data[i] - kink) < margin) {
      data[i] = data[i] >= kink ? kink + margin : kink - margin;
    }
  }
}

}  // namespace cgdnn::testing
