// Shared harness for the figure-reproduction benches (DESIGN.md §3).
//
// Every figure is a measurement on the host that runs it. The bench builds
// the real network on synthetic data and runs MeasureThreadSweep
// (src/cgdnn/net/thread_sweep.hpp) at 1..nproc threads, the same sweep
// cgdnn_audit reports. Each per-layer and whole-iteration time carries
// min / p50 / max over the timed iterations, and the BENCH_*.json rows
// record all three. tools/compare_bench.py gates each p50 against a
// baseline pooled over separate runs (tools/pool_bench_runs.py), within
// the run-to-run spread that baseline recorded. The paper's values (16-core Xeon E5-2667v2, Tesla K40)
// are printed and recorded beside the measurements as labelled reference
// constants only.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cgdnn/net/models.hpp"
#include "cgdnn/net/thread_sweep.hpp"

namespace cgdnn::bench {

struct FigureContext {
  std::string dataset;
  index_t batch = 0;
  ThreadSweep sweep;

  /// p50 speedup of (layer, phase) at `threads` over one thread; 0 when the
  /// row is absent.
  double Speedup(const std::string& layer, parallel::LayerPhase phase,
                 int threads) const;
};

/// Builds LeNet / CIFAR-quick on synthetic data and sweeps it over every
/// host thread count, `iterations` timed iterations each. `base` supplies
/// the merge mode and coalescing.
FigureContext PrepareMnist(index_t batch = 64, int iterations = 15,
                           const parallel::ParallelConfig& base = {});
FigureContext PrepareCifar(index_t batch = 100, int iterations = 3);

/// Figure 4/7: per-layer p50 µs at each thread count and each layer's share
/// of the 1-thread iteration.
void PrintLayerTimeFigure(const FigureContext& ctx, const std::string& title);

/// Figure 5/8: per-layer p50 speedup over one thread at each thread count.
/// The json records the per-layer times the speedups are computed from.
void PrintScalabilityFigure(const FigureContext& ctx, const std::string& title);

struct PaperOverall {
  // The paper's overall speedups, printed as reference constants.
  double omp8 = 0, omp16 = 0, plain_gpu = 0, cudnn_gpu = 0;
};

/// Figure 6/9: measured whole-iteration time and speedup per thread count,
/// with the paper's OpenMP and GPU speedups beside them. The json records
/// the iteration times.
void PrintOverallFigure(const FigureContext& ctx, const std::string& title,
                        const PaperOverall& paper);

/// Machine-readable mirror of the figure output. The Print* helpers record
/// every value they print; a bench main then calls
/// `BenchReport::Get().Write("fig4_mnist_layer_time")` to produce
/// BENCH_fig4_mnist_layer_time.json in the working directory
/// (tools/run_benches.sh collects these under bench/results/). Benches that
/// print custom tables record their headline numbers with Add() directly.
class BenchReport {
 public:
  static BenchReport& Get();

  /// Records `section/key/column = value`, e.g.
  /// Add("paper_speedup", "ip1_fwd", "8T", 4.58). Repeated calls with the
  /// same coordinates overwrite.
  void Add(const std::string& section, const std::string& key,
           const std::string& column, double value);

  /// Records a measured row: `min`, `p50` and `max` of `stats`.
  void AddSpread(const std::string& section, const std::string& key,
                 const profile::PhaseStats& stats);

  /// Writes BENCH_<bench_name>.json and clears the accumulated rows.
  /// Returns false (with a note on stderr) when the file cannot be opened.
  bool Write(const std::string& bench_name);

 private:
  struct Row {
    std::string section;
    std::string key;
    std::vector<std::pair<std::string, double>> values;
  };
  std::vector<Row> rows_;
};

}  // namespace cgdnn::bench
