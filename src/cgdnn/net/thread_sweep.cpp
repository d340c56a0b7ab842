#include "cgdnn/net/thread_sweep.hpp"

#include <algorithm>
#include <iterator>

#include "cgdnn/profile/timer.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn {

namespace {

/// Ratio of two registry counters, preferring the all-thread region
/// counters and falling back to the driver-thread layer counters (full
/// coverage whenever the layer ran serially).
std::optional<double> CounterRatio(const trace::MetricsRegistry& registry,
                                   const std::string& region_prefix,
                                   const std::string& layer_prefix,
                                   const char* num_event,
                                   const char* den_event) {
  for (const std::string& prefix : {region_prefix, layer_prefix}) {
    const auto* num = registry.FindCounter(prefix + "." + num_event);
    const auto* den = registry.FindCounter(prefix + "." + den_event);
    if (num != nullptr && den != nullptr && den->value() > 0) {
      return static_cast<double>(num->value()) /
             static_cast<double>(den->value());
    }
  }
  return std::nullopt;
}

SweepCell HarvestCell(const trace::MetricsRegistry& registry,
                      const std::string& layer, const char* phase,
                      const profile::PhaseStats& time) {
  SweepCell cell;
  cell.time = time;
  const std::string key = layer + "." + phase;
  if (const auto* g = registry.FindGauge("region." + key + ".imbalance_last");
      g != nullptr) {
    cell.imbalance = g->value();
  }
  if (const auto* g = registry.FindGauge("region." + key + ".straggler_tid");
      g != nullptr) {
    cell.straggler_tid = static_cast<int>(g->value());
  }
  cell.ipc = CounterRatio(registry, "region." + key, "layer." + key,
                          "instructions", "cycles");
  cell.llc_miss_rate = CounterRatio(registry, "region." + key, "layer." + key,
                                    "llc_misses", "llc_refs");
  return cell;
}

}  // namespace

const SweepRow* ThreadSweep::Find(const std::string& layer,
                                  profile::LayerPhase phase) const {
  for (const SweepRow& row : rows) {
    if (row.layer == layer && row.phase == phase) return &row;
  }
  return nullptr;
}

ThreadSweep MeasureThreadSweep(Net<float>& net, const std::vector<int>& threads,
                               int warmup, int iterations,
                               const parallel::ParallelConfig& base) {
  CGDNN_CHECK_GT(iterations, 0);
  ThreadSweep sweep;
  sweep.threads = threads;
  auto& registry = trace::MetricsRegistry::Default();
  for (const int t : threads) {
    parallel::ParallelConfig cfg = base;
    cfg.mode = t > 1 ? parallel::ExecutionMode::kCoarseGrain
                     : parallel::ExecutionMode::kSerial;
    cfg.num_threads = t;
    parallel::Parallel::Scope scope(cfg);

    for (int i = 0; i < warmup; ++i) {
      net.ClearParamDiffs();
      net.ForwardBackward();
    }
    registry.Reset();
    trace::SetMetrics(true);
    profile::Profiler profiler;
    net.set_profiler(&profiler);
    profile::PhaseStats& iteration = sweep.iteration[t];
    for (int i = 0; i < iterations; ++i) {
      net.ClearParamDiffs();
      profile::Timer timer;
      net.ForwardBackward();
      iteration.Add(timer.MicroSeconds());
    }
    net.set_profiler(nullptr);
    trace::SetMetrics(false);

    for (const std::string& layer : profiler.layer_order()) {
      for (const auto phase :
           {profile::LayerPhase::kForward, profile::LayerPhase::kBackward}) {
        if (!profiler.has(layer, phase)) continue;
        auto row = std::find_if(
            sweep.rows.begin(), sweep.rows.end(), [&](const SweepRow& r) {
              return r.layer == layer && r.phase == phase;
            });
        if (row == sweep.rows.end()) {
          SweepRow fresh;
          fresh.layer = layer;
          fresh.type = net.layer_by_name(layer)->type();
          fresh.phase = phase;
          sweep.rows.push_back(std::move(fresh));
          row = std::prev(sweep.rows.end());
        }
        row->by_threads[t] =
            HarvestCell(registry, layer, profile::LayerPhaseName(phase),
                        profiler.stats(layer, phase));
      }
    }
  }
  return sweep;
}

}  // namespace cgdnn
