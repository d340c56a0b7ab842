// Figure 6 reproduction: MNIST overall speedup of one training iteration,
// measured at 1..nproc threads, beside the paper's OpenMP and GPU values.
//
// Paper shape targets: OpenMP ~6x at 8 threads, ~8x at 16; plain-GPU ~2x
// (its generic convolution kernels are the bottleneck: 0.43x-2.9x);
// cuDNN-GPU ~12x; plain-GPU pooling forward 57x/62x, dropping to ~27x under
// cuDNN.
#include "bench_common.hpp"

int main() {
  using namespace cgdnn;
  const auto ctx = bench::PrepareMnist();
  bench::PaperOverall paper;
  paper.omp8 = 6.0;
  paper.omp16 = 8.0;
  paper.plain_gpu = 2.0;
  paper.cudnn_gpu = 12.0;
  bench::PrintOverallFigure(ctx, "Figure 6: MNIST overall speedups", paper);
  bench::BenchReport::Get().Write("fig6_mnist_overall");
  return 0;
}
