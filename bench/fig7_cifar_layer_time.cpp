// Figure 7 reproduction: CIFAR-10 per-layer absolute execution time and
// relative weight, measured at 1..nproc threads.
//
// Paper shape targets: conv + pool + LRN layers account for ~85% of the
// iteration in all thread configurations; the deep tail (pool3, ip1, loss)
// is negligible.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareCifar();
  bench::PrintLayerTimeFigure(ctx, "Figure 7: CIFAR-10 per-layer time");

  double dominant = 0, total = 0;
  for (const SweepRow& row : ctx.sweep.rows) {
    const double us = row.by_threads.at(1).time.p50_us();
    total += us;
    if (row.type == "Convolution" || row.type == "Pooling" ||
        row.type == "LRN") {
      dominant += us;
    }
  }
  std::cout << "conv+pool+norm share of iteration: "
            << 100.0 * dominant / total << "% (paper: ~85%)\n";
  bench::BenchReport::Get().Add("headline", "conv_pool_norm_share_pct",
                                "value", 100.0 * dominant / total);
  bench::BenchReport::Get().Add("headline", "conv_pool_norm_share_pct",
                                "paper", 85.0);
  bench::BenchReport::Get().Write("fig7_cifar_layer_time");
  return 0;
}
