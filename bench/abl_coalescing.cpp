// Ablation: loop coalescing (§3.2.1 / §4.3 "work unbalance").
//
// The coarse-grain transformation coalesces the batch loop with inner loops
// so the minimal static-scheduling work unit shrinks. Without coalescing,
// one loop iteration = one full sample, and thread counts that do not
// divide the batch leave whole-sample bubbles. This bench quantifies the
// effect two ways:
//  1. analytically — exact static-chunk makespans of the pool1 layer's
//     iteration space with and without coalescing;
//  2. measured — pool1 forward time at 1..nproc threads with
//     ParallelConfig::coalesce on and off (the shared thread sweep).
#include <iostream>

#include "bench_common.hpp"
#include "cgdnn/parallel/coalesce.hpp"

int main() {
  using namespace cgdnn;
  std::cout << "=== Ablation: loop coalescing vs bare batch loop ===\n"
            << "LeNet pool1: batch 64, 20 channels -> coalesced space 1280 "
               "planes; bare space 64 samples.\n\n";

  printf("%8s %22s %22s %12s\n", "threads", "coalesced_makespan",
         "batch_only_makespan", "advantage");
  for (const int t : {1, 2, 4, 8, 12, 16}) {
    // Slowest-thread share of the iteration space (1.0 = serial).
    const auto makespan = [&](index_t total) {
      index_t max_chunk = 0;
      for (int tid = 0; tid < t; ++tid) {
        max_chunk =
            std::max(max_chunk, parallel::StaticChunk(total, t, tid).size());
      }
      return static_cast<double>(max_chunk) / static_cast<double>(total);
    };
    const double coalesced = makespan(64 * 20);
    const double batch_only = makespan(64);
    printf("%8d %22.4f %22.4f %11.1f%%\n", t, coalesced, batch_only,
           100.0 * (batch_only - coalesced) / batch_only);
    auto& report = bench::BenchReport::Get();
    const std::string col = std::to_string(t) + "T";
    report.Add("makespan", "coalesced", col, coalesced);
    report.Add("makespan", "batch_only", col, batch_only);
  }

  std::cout << "\nMeasured pool1 forward time (us, p50; BENCH json carries "
               "min/p50/max):\n";
  parallel::ParallelConfig bare;
  bare.coalesce = false;
  const auto coalesced = bench::PrepareMnist(/*batch=*/64, /*iterations=*/5);
  const auto batch_only = bench::PrepareMnist(64, 5, bare);
  const SweepRow* c_row =
      coalesced.sweep.Find("pool1", parallel::LayerPhase::kForward);
  const SweepRow* b_row =
      batch_only.sweep.Find("pool1", parallel::LayerPhase::kForward);
  CGDNN_CHECK(c_row != nullptr && b_row != nullptr) << "pool1 did not run";
  printf("%8s %14s %14s\n", "threads", "coalesced", "batch-only");
  for (const int t : coalesced.sweep.threads) {
    const auto& c_us = c_row->by_threads.at(t).time;
    const auto& b_us = b_row->by_threads.at(t).time;
    printf("%8d %14.0f %14.0f\n", t, c_us.p50_us(), b_us.p50_us());
    auto& report = bench::BenchReport::Get();
    const std::string key = std::to_string(t) + "T";
    report.AddSpread("pool1_fwd_us.coalesced", key, c_us);
    report.AddSpread("pool1_fwd_us.batch_only", key, b_us);
  }
  std::cout << "\n(the makespan table's 12-thread row shows the paper's "
               "point: 64 samples over 12 threads quantize to 6-sample "
               "chunks, an 11% bubble, while 1280 coalesced planes split "
               "almost evenly)\n";
  bench::BenchReport::Get().Write("abl_coalescing");
  return 0;
}
