// Ablation: BLAS-level (fine-grain) vs batch-level (coarse-grain) CPU
// parallelism — the §3.1.1 vs §3.1.3 comparison.
//
// Both strategies are run for the InnerProduct workload shape (the layer
// where they differ most: one big GEMM vs per-chunk GEMMs):
//  * fine-grain: one gemm over the whole batch, rows parallelized inside
//    the kernel (a threaded-OpenBLAS stand-in);
//  * coarse-grain: each thread runs the serial kernel on its sample chunk.
// Both are timed on the host that runs the bench; beyond the wall times,
// the point is that BOTH give identical results (row independence) while
// the coarse-grain one needs no BLAS support at all — the paper's
// network-agnostic argument.
#include <omp.h>

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/parallel/coalesce.hpp"
#include "cgdnn/profile/timer.hpp"

namespace {

using namespace cgdnn;

std::vector<float> RandomVec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
  return v;
}

}  // namespace

int main() {
  // ip1 shape of LeNet: batch 64 x 800 -> 500.
  constexpr index_t kM = 64, kK = 800, kN = 500;
  const auto bottom = RandomVec(kM * kK, 1);
  const auto weight = RandomVec(kN * kK, 2);
  std::vector<float> top_fine(kM * kN), top_coarse(kM * kN),
      top_serial(kM * kN);

  std::cout << "=== Ablation: BLAS-level vs batch-level parallelism ===\n"
            << "InnerProduct ip1 shape: " << kM << " x " << kK << " -> " << kN
            << "\n\n";

  constexpr int kReps = 20;
  profile::Timer timer;
  for (int r = 0; r < kReps; ++r) {
    blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, kM, kN, kK,
               1.0f, bottom.data(), weight.data(), 0.0f, top_serial.data());
  }
  const double serial_us = timer.MicroSeconds() / kReps;

  const int threads = std::min(4, omp_get_num_procs() * 4);
  blas::finegrain::set_num_threads(threads);
  timer.Restart();
  for (int r = 0; r < kReps; ++r) {
    blas::finegrain::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, kM,
                          kN, kK, 1.0f, bottom.data(), weight.data(), 0.0f,
                          top_fine.data());
  }
  const double fine_us = timer.MicroSeconds() / kReps;
  blas::finegrain::set_num_threads(0);

  timer.Restart();
  for (int r = 0; r < kReps; ++r) {
#pragma omp parallel num_threads(threads)
    {
      const auto range = parallel::StaticChunk(kM, omp_get_num_threads(),
                                               omp_get_thread_num());
      if (range.size() > 0) {
        blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans,
                   range.size(), kN, kK, 1.0f, bottom.data() + range.begin * kK,
                   weight.data(), 0.0f, top_coarse.data() + range.begin * kN);
      }
    }
  }
  const double coarse_us = timer.MicroSeconds() / kReps;

  double max_diff = 0;
  for (std::size_t i = 0; i < top_serial.size(); ++i) {
    max_diff = std::max<double>(
        max_diff, std::abs(double(top_serial[i]) - double(top_coarse[i])));
  }
  printf("%-28s %12s %16s\n", "strategy", "wall_us", "max_abs_diff");
  printf("%-28s %12.0f %16s\n", "serial gemm", serial_us, "-");
  printf("%-28s %12.0f %16.1e\n", "fine-grain (in-kernel omp)", fine_us,
         0.0);
  printf("%-28s %12.0f %16.1e\n", "coarse-grain (batch chunks)", coarse_us,
         max_diff);
  auto& report = cgdnn::bench::BenchReport::Get();
  report.Add("gemm", "serial", "wall_us", serial_us);
  report.Add("gemm", "fine_grain", "wall_us", fine_us);
  report.Add("gemm", "coarse_grain", "wall_us", coarse_us);
  report.Add("gemm", "coarse_grain", "max_abs_diff", max_diff);
  report.Write("abl_blas_vs_batch");
  std::cout << "\n(" << threads << " threads on " << omp_get_num_procs()
            << " core(s); with one physical core both parallel variants "
               "pay only overhead — the point of this ablation is that the "
               "coarse-grain version used ONLY the serial kernel, i.e. no "
               "optimized parallel BLAS is required: network-agnostic)\n";
  return max_diff < 1e-4 ? 0 : 1;
}
