// The network-agnostic property (paper §3.3): a brand-new layer type —
// something no vendor library knows about — joins the framework with zero
// parallelization effort, because batch-level parallelism is inherent to
// the training algorithm, not to the layer's computation.
//
// This example defines a "Swish" activation (x * sigmoid(beta x)) the way a
// researcher would:
//  1. SerialSwishLayer implements only the serial loops (Algorithms 2/3).
//     The framework's default falls back to serial code inside an otherwise
//     parallel net — everything still works, other layers still scale.
//  2. SwishLayer adds the coarse-grain path: ONE region-helper call per
//     pass around the serial loop body (Algorithm 4), no data-layout
//     redesign, no kernel writing, no OpenMP in sight.
// The example trains a net with each variant and cross-checks the losses.
#include <cmath>
#include <iostream>
#include <vector>

#include "cgdnn/layers/layer.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/region.hpp"
#include "cgdnn/solvers/solver.hpp"

namespace {

using namespace cgdnn;

template <typename Dtype>
class SerialSwishLayer : public Layer<Dtype> {
 public:
  explicit SerialSwishLayer(const proto::LayerParameter& param)
      : Layer<Dtype>(param) {}
  void Reshape(const std::vector<Blob<Dtype>*>& bottom,
               const std::vector<Blob<Dtype>*>& top) override {
    top[0]->ReshapeLike(*bottom[0]);
  }
  const char* type() const override { return "SerialSwish"; }
  int ExactNumBottomBlobs() const override { return 1; }
  int ExactNumTopBlobs() const override { return 1; }

 protected:
  static Dtype Sigmoid(Dtype x) {
    return Dtype(0.5) * std::tanh(Dtype(0.5) * x) + Dtype(0.5);
  }
  void Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                   const std::vector<Blob<Dtype>*>& top) override {
    const Dtype* x = bottom[0]->cpu_data();
    Dtype* y = top[0]->mutable_cpu_data();
    for (index_t i = 0; i < bottom[0]->count(); ++i) {
      y[i] = x[i] * Sigmoid(x[i]);
    }
  }
  void Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                    const std::vector<bool>& propagate_down,
                    const std::vector<Blob<Dtype>*>& bottom) override {
    if (!propagate_down[0]) return;
    const Dtype* x = bottom[0]->cpu_data();
    const Dtype* dy = top[0]->cpu_diff();
    Dtype* dx = bottom[0]->mutable_cpu_diff();
    for (index_t i = 0; i < bottom[0]->count(); ++i) {
      const Dtype s = Sigmoid(x[i]);
      dx[i] = dy[i] * (s + x[i] * s * (Dtype(1) - s));
    }
  }
};

/// The "parallelized by one helper call" version: identical math, and the
/// coarse-grain override is literally the serial loop body handed to the
/// region helper, which splits the elements statically across threads. The
/// call names nothing: its spans and imbalance metrics land under the layer
/// phase Layer::Forward opened around it ("relu1.forward" here, since the
/// net below keeps LeNet's layer name).
template <typename Dtype>
class SwishLayer : public SerialSwishLayer<Dtype> {
 public:
  using SerialSwishLayer<Dtype>::SerialSwishLayer;
  const char* type() const override { return "Swish"; }

 protected:
  void Forward_cpu_parallel(const std::vector<Blob<Dtype>*>& bottom,
                            const std::vector<Blob<Dtype>*>& top) override {
    const Dtype* x = bottom[0]->cpu_data();
    Dtype* y = top[0]->mutable_cpu_data();
    parallel::ForEachElement(bottom[0]->count(), y, "top.data", [&](index_t i) {
      y[i] = x[i] * this->Sigmoid(x[i]);
    });
  }
  void Backward_cpu_parallel(const std::vector<Blob<Dtype>*>& top,
                             const std::vector<bool>& propagate_down,
                             const std::vector<Blob<Dtype>*>& bottom) override {
    if (!propagate_down[0]) return;
    const Dtype* x = bottom[0]->cpu_data();
    const Dtype* dy = top[0]->cpu_diff();
    Dtype* dx = bottom[0]->mutable_cpu_diff();
    parallel::ForEachElement(
        bottom[0]->count(), dx, "bottom.diff", [&](index_t i) {
          const Dtype s = this->Sigmoid(x[i]);
          dx[i] = dy[i] * (s + x[i] * s * (Dtype(1) - s));
        });
  }
};

template <typename Dtype, template <typename> class L>
std::shared_ptr<Layer<Dtype>> Make(const proto::LayerParameter& p) {
  return std::make_shared<L<Dtype>>(p);
}

float TrainWithActivation(const std::string& act_type, int threads) {
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  parallel::Parallel::Scope scope(cfg);

  models::ModelOptions opts;
  opts.batch_size = 16;
  opts.num_samples = 64;
  opts.with_accuracy = false;
  auto solver_param = models::LeNetSolver(opts);
  solver_param.test_iter = 0;
  solver_param.max_iter = 10;
  // Swap LeNet's in-place ReLU for the custom activation.
  for (auto& lp : solver_param.net_param.layer) {
    if (lp.type == "ReLU") lp.type = act_type;
  }
  const auto solver = CreateSolver<float>(solver_param);
  solver->Step(10);
  return solver->loss_history().back();
}

}  // namespace

int main() {
  // Runtime registration: research layers plug into the same registry the
  // built-ins use.
  EnsureLayersRegistered();
  LayerRegistry<float>::Get().Register("SerialSwish",
                                       &Make<float, SerialSwishLayer>);
  LayerRegistry<double>::Get().Register("SerialSwish",
                                        &Make<double, SerialSwishLayer>);
  LayerRegistry<float>::Get().Register("Swish", &Make<float, SwishLayer>);
  LayerRegistry<double>::Get().Register("Swish", &Make<double, SwishLayer>);

  const float serial_only = TrainWithActivation("SerialSwish", 4);
  std::cout << "serial-only custom layer inside a 4-thread net, final loss: "
            << serial_only << "\n";
  const float parallel_ver = TrainWithActivation("Swish", 4);
  std::cout << "one-call parallel custom layer,        final loss: "
            << parallel_ver << "\n";
  const float reference = TrainWithActivation("Swish", 1);
  std::cout << "serial reference,                      final loss: "
            << reference << "\n";

  const bool consistent =
      std::abs(serial_only - parallel_ver) < 1e-5f &&
      std::abs(parallel_ver - reference) < 1e-5f;
  std::cout << (consistent ? "all variants agree" : "MISMATCH") << "\n";
  return consistent ? 0 : 1;
}
