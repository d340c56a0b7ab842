// Ablation: gradient-merge strategies (§3.2.1's ordered-vs-reduction
// discussion). Trains the same LeNet under each merge mode and reports
//  * the final loss and its divergence from the serial trajectory,
//  * run-to-run reproducibility (the paper's reason to prefer ordered
//    during tuning/debugging),
//  * measured training wall time under each merge mode on the host that
//    runs it (4 threads, oversubscribed on smaller hosts).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/profile/timer.hpp"
#include "cgdnn/solvers/solver.hpp"

namespace {

std::vector<float> Train(cgdnn::parallel::GradientMerge merge, int threads,
                         cgdnn::index_t iters, double* wall_us) {
  using namespace cgdnn;
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = merge;
  parallel::Parallel::Scope scope(cfg);

  data::ClearDatasetCache();
  models::ModelOptions opts;
  opts.batch_size = 16;
  opts.num_samples = 64;
  opts.with_accuracy = false;
  auto param = models::LeNetSolver(opts);
  param.test_iter = 0;
  param.max_iter = iters;
  const auto solver = CreateSolver<float>(param);
  profile::Timer timer;
  solver->Step(iters);
  if (wall_us != nullptr) *wall_us = timer.MicroSeconds();
  return solver->loss_history();
}

}  // namespace

int main() {
  using namespace cgdnn;
  constexpr index_t kIters = 10;
  std::cout << "=== Ablation: gradient merge strategies (paper 3.2.1) ===\n"
            << "LeNet, batch 16, 4 threads, " << kIters << " iterations.\n\n";

  double serial_us = 0;
  const auto serial =
      Train(parallel::GradientMerge::kSerial, 1, kIters, &serial_us);

  std::cout << std::left;
  printf("%-10s %14s %18s %14s %12s\n", "merge", "final_loss",
         "max_rel_vs_serial", "reproducible", "wall_us");
  printf("%-10s %14.6f %18s %14s %12.0f\n", "serial", double(serial.back()),
         "-", "yes", serial_us);

  for (const auto merge :
       {parallel::GradientMerge::kOrdered, parallel::GradientMerge::kTree,
        parallel::GradientMerge::kAtomic}) {
    double wall = 0;
    const auto run1 = Train(merge, 4, kIters, &wall);
    const auto run2 = Train(merge, 4, kIters, nullptr);
    double max_rel = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      max_rel = std::max(
          max_rel, std::abs(double(run1[i]) - double(serial[i])) /
                       std::max(1e-12, std::abs(double(serial[i]))));
    }
    printf("%-10s %14.6f %18.3e %14s %12.0f\n",
           parallel::GradientMergeName(merge), double(run1.back()), max_rel,
           run1 == run2 ? "yes" : "NO", wall);
    auto& report = bench::BenchReport::Get();
    const std::string key = parallel::GradientMergeName(merge);
    report.Add("merge", key, "final_loss", double(run1.back()));
    report.Add("merge", key, "max_rel_vs_serial", max_rel);
    report.Add("merge", key, "reproducible", run1 == run2 ? 1.0 : 0.0);
    report.Add("merge", key, "wall_us", wall);
  }
  std::cout << "\n(ordered: deterministic and closest to serial — the "
               "paper's choice for tuning/debugging; atomic is unordered "
               "and may differ run to run)\n";
  auto& report = bench::BenchReport::Get();
  report.Add("merge", "serial", "final_loss", double(serial.back()));
  report.Add("merge", "serial", "wall_us", serial_us);
  report.Write("abl_reduction_modes");
  return 0;
}
