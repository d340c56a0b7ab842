// Figure 8 reproduction: CIFAR-10 per-layer scalability (measured speedup
// over one thread at 2..nproc threads).
//
// Paper shape targets (16-core Xeon): conv1 ~5.87x at 8 threads / ~9x at 16
// (sequential data layer + NUMA); pool1/relu1 scale to ~11x/13x; norm1
// changes the data-thread distribution and reaches ~4.6x/10.8x; conv2 is
// dragged by norm1's different distribution; reductions in the backward
// pass are negligible.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareCifar();
  bench::PrintScalabilityFigure(ctx,
                                "Figure 8: CIFAR-10 per-layer scalability");

  const int top = ctx.sweep.threads.back();
  const auto fwd = [&](const std::string& name) {
    return ctx.Speedup(name, parallel::LayerPhase::kForward, top);
  };
  std::cout << "forward speedup @" << top << "T: conv1 " << fwd("conv1")
            << " (paper: 5.87 at 8T / 9 at 16T)  pool1 " << fwd("pool1")
            << " (paper: 6.5 / 11)  conv2 " << fwd("conv2")
            << " (paper: ~8.25 at 16T)\n";
  auto& report = bench::BenchReport::Get();
  report.Add("paper_speedup", "conv1_fwd", "8T", 5.87);
  report.Add("paper_speedup", "conv1_fwd", "16T", 9.0);
  report.Add("paper_speedup", "pool1_fwd", "8T", 6.5);
  report.Add("paper_speedup", "pool1_fwd", "16T", 11.0);
  report.Add("paper_speedup", "conv2_fwd", "16T", 8.25);
  report.Write("fig8_cifar_layer_scalability");
  return 0;
}
