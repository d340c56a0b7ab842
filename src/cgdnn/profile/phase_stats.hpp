// Spread statistics over per-iteration samples of one layer phase (or of a
// whole iteration): the min / p50 / max / stddev columns of the paper's
// Figures 4/5/7/8 and of `cgdnn_time --csv`. The samples come from the
// metrics registry's `layer.<layer>.<phase>.us` histograms, which the layer
// phase scope (parallel/instrument.hpp) feeds; MeasureThreadSweep
// (net/thread_sweep.hpp) reads one sample per timed iteration.
#pragma once

#include <vector>

#include "cgdnn/core/common.hpp"

namespace cgdnn::profile {

struct PhaseStats {
  std::vector<double> samples_us;

  void Add(double us) { samples_us.push_back(us); }
  double total_us() const;
  double mean_us() const;
  double min_us() const;
  double max_us() const;
  /// Population standard deviation over the samples (0 when < 2 samples).
  double stddev_us() const;
  /// Median (lower-median for even sample counts).
  double p50_us() const;
  std::size_t count() const { return samples_us.size(); }
};

}  // namespace cgdnn::profile
