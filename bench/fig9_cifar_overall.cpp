// Figure 9 reproduction: CIFAR-10 overall speedup of one training
// iteration, measured at 1..nproc threads, beside the paper's OpenMP and
// GPU values.
//
// Paper shape targets: OpenMP ~6x at 8 threads, 8.83x at 16; plain-GPU ~6x
// (conv kernels 1.8x-6x, everything else >10x with pooling ~110x and LRN
// ~40x); cuDNN-GPU ~27x with conv speedups around 50x.
#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareCifar();
  bench::PaperOverall paper;
  paper.omp8 = 6.0;
  paper.omp16 = 8.83;
  paper.plain_gpu = 6.0;
  paper.cudnn_gpu = 27.0;
  bench::PrintOverallFigure(ctx, "Figure 9: CIFAR-10 overall speedups", paper);
  bench::BenchReport::Get().Write("fig9_cifar_overall");
  return 0;
}
