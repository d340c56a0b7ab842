// Figure 5 reproduction: MNIST per-layer scalability (measured speedup over
// one thread at 2..nproc threads).
//
// Paper shape targets (16-core Xeon): u-shaped cluster (big conv/pool
// layers on the sides scale; the tiny center layers do not); ip1 ~4.6-5.9x
// and pool2 ~5.5-5.7x at 8 threads with no further gains; conv2 scales
// better than conv1 (conv1 inherits the sequential data layer's memory
// footprint).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareMnist();
  bench::PrintScalabilityFigure(ctx, "Figure 5: MNIST per-layer scalability");

  // Shape comparison at the largest measured team against the paper's
  // 8-thread values (reported, not enforced).
  const int top = ctx.sweep.threads.back();
  const auto fwd = [&](const std::string& name) {
    return ctx.Speedup(name, parallel::LayerPhase::kForward, top);
  };
  std::cout << "forward speedup @" << top << "T: conv1 " << fwd("conv1")
            << "  conv2 " << fwd("conv2")
            << "  (paper: conv2 ~10% above conv1)\n"
            << "ip1 " << fwd("ip1") << " (paper: 4.58 at 8T)  pool2 "
            << fwd("pool2") << " (paper: 5.52 at 8T)\n";
  auto& report = bench::BenchReport::Get();
  report.Add("paper_speedup", "ip1_fwd", "8T", 4.58);
  report.Add("paper_speedup", "pool2_fwd", "8T", 5.52);
  report.Write("fig5_mnist_layer_scalability");
  return 0;
}
