// Figure 4 reproduction: MNIST per-layer absolute execution time and share
// of one training iteration, measured at 1..nproc threads.
//
// Paper shape targets: convolution + pooling layers account for ~80% of the
// iteration; conv2 dominates; the "center" layers (pool2, ip1 tail, relu,
// ip2, loss) shrink with network depth (dimensionality reduction).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareMnist();
  bench::PrintLayerTimeFigure(ctx, "Figure 4: MNIST per-layer time");

  // Headline check printed for EXPERIMENTS.md: conv+pool share at 1 thread.
  double conv_pool = 0, total = 0;
  for (const SweepRow& row : ctx.sweep.rows) {
    const double us = row.by_threads.at(1).time.p50_us();
    total += us;
    if (row.type == "Convolution" || row.type == "Pooling") conv_pool += us;
  }
  std::cout << "conv+pool share of iteration: " << 100.0 * conv_pool / total
            << "% (paper: ~80%)\n";
  bench::BenchReport::Get().Add("headline", "conv_pool_share_pct", "value",
                                100.0 * conv_pool / total);
  bench::BenchReport::Get().Add("headline", "conv_pool_share_pct", "paper",
                                80.0);
  bench::BenchReport::Get().Write("fig4_mnist_layer_time");
  return 0;
}
