// Measured thread sweep: the one per-layer scaling measurement behind
// cgdnn_audit and the figure benches (paper Figs 4-9).
//
// For each thread count the net runs under a Parallel::Scope: `warmup`
// untimed iterations, then `iterations` timed ones with metrics armed. The
// metrics registry is the one sink: each layer phase's scope records its
// time into `layer.<layer>.<phase>.us`, and the sweep reads one sample per
// timed iteration as the growth of that histogram's sum. Every
// (layer, phase, T) cell keeps all of its per-iteration samples, so a
// consumer reads min / p50 / max (run-to-run spread) or the mean, plus the
// imbalance and counter ratios the phase recorded at that thread count.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/instrument.hpp"
#include "cgdnn/profile/phase_stats.hpp"
#include "cgdnn/trace/metrics.hpp"

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
  parallel::LayerPhase phase = parallel::LayerPhase::kForward;
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
                       parallel::LayerPhase phase) const;
};

/// Measures `net` at every thread count in `threads` (T = 1 runs serially).
/// Merge mode and coalescing come from `base`. Resets and fills the default
/// metrics registry once per thread count.
ThreadSweep MeasureThreadSweep(Net<float>& net, const std::vector<int>& threads,
                               int warmup, int iterations,
                               const parallel::ParallelConfig& base = {});

/// Figure 4/7-style table of the `layer.<layer>.<phase>.us` histograms in
/// `registry` for `layers` (network order): mean and min microseconds per
/// phase and each phase's share of the summed means (one iteration).
std::string LayerTimeTable(const std::vector<std::string>& layers,
                           const trace::MetricsRegistry& registry);

/// The same rows at `threads` from a sweep's per-iteration samples, as CSV
/// with header
/// `layer,phase,mean_us,min_us,max_us,stddev_us,p50_us,total_us,count,share`.
std::string LayerTimeCsv(const ThreadSweep& sweep, int threads);

}  // namespace cgdnn
