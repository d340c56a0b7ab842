// Measured thread sweep: the one per-layer scaling measurement behind
// cgdnn_audit and the figure benches (paper Figs 4-9).
//
// For each thread count the net runs under a Parallel::Scope: `warmup`
// untimed iterations, then `iterations` profiled ones with metrics armed.
// Every (layer, phase, T) cell keeps all of its per-iteration samples, so a
// consumer reads min / p50 / max (run-to-run spread) or the mean, plus the
// region imbalance and counter ratios the metrics registry collected at
// that thread count.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/profile/profiler.hpp"

namespace cgdnn {

/// Everything measured for one (layer, phase) at one thread count.
struct SweepCell {
  profile::PhaseStats time;  ///< one sample per timed iteration (us)
  std::optional<double> imbalance;
  std::optional<int> straggler_tid;
  std::optional<double> ipc;
  std::optional<double> llc_miss_rate;
};

/// One (layer, phase) across the sweep.
struct SweepRow {
  std::string layer;
  std::string type;
  profile::LayerPhase phase = profile::LayerPhase::kForward;
  std::map<int, SweepCell> by_threads;
};

struct ThreadSweep {
  std::vector<int> threads;
  /// Network order; each layer's forward row precedes its backward row.
  std::vector<SweepRow> rows;
  /// Wall time of each whole timed iteration (us), per thread count.
  std::map<int, profile::PhaseStats> iteration;

  /// The row for (layer, phase), or nullptr when it never ran.
  const SweepRow* Find(const std::string& layer,
                       profile::LayerPhase phase) const;
};

/// Measures `net` at every thread count in `threads` (T = 1 runs serially).
/// Merge mode and coalescing come from `base`. Resets and fills the default
/// metrics registry once per thread count.
ThreadSweep MeasureThreadSweep(Net<float>& net, const std::vector<int>& threads,
                               int warmup, int iterations,
                               const parallel::ParallelConfig& base = {});

}  // namespace cgdnn
