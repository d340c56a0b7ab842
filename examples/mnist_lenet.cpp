// LeNet on (synthetic) MNIST — the paper's first evaluation workload.
//
//   ./mnist_lenet [threads] [iters] [batch]
//
// Trains with coarse-grain batch parallelism, reports the loss trajectory,
// test accuracy, and the per-layer forward/backward timing table that
// Figure 4 of the paper is built from.
#include <cstdlib>
#include <iostream>

#include "cgdnn/net/models.hpp"
#include "cgdnn/net/thread_sweep.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/solvers/solver.hpp"
#include "cgdnn/trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace cgdnn;

  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const index_t iters = argc > 2 ? std::atoll(argv[2]) : 150;
  const index_t batch = argc > 3 ? std::atoll(argv[3]) : 64;

  auto& cfg = parallel::Parallel::Config();
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = parallel::GradientMerge::kOrdered;

  models::ModelOptions opts;
  opts.batch_size = batch;
  opts.num_samples = 512;
  auto solver_param = models::LeNetSolver(opts);
  solver_param.max_iter = iters;
  solver_param.display = iters / 5;

  const auto solver = CreateSolver<float>(solver_param);
  std::cout << "LeNet / synthetic MNIST, batch " << batch << ", " << threads
            << " thread(s)\n";
  solver->Solve();

  for (const auto& [name, value] : solver->TestAll()) {
    std::cout << "test " << name << ": " << value << "\n";
  }

  // Per-layer timing of one profiled iteration block (Figure 4 layout).
  auto& registry = trace::MetricsRegistry::Default();
  registry.Reset();
  trace::SetMetrics(true);
  for (int i = 0; i < 5; ++i) {
    solver->net().ClearParamDiffs();
    solver->net().ForwardBackward();
  }
  trace::SetMetrics(false);
  std::cout << "\nPer-layer execution time (" << threads << " threads):\n"
            << LayerTimeTable(solver->net().layer_names(), registry);
  return 0;
}
