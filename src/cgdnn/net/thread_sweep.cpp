#include "cgdnn/net/thread_sweep.hpp"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "cgdnn/profile/timer.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn {

namespace {

constexpr parallel::LayerPhase kPhases[] = {parallel::LayerPhase::kForward,
                                            parallel::LayerPhase::kBackward};

/// Ratio of two registry counters under `prefix` (absent when either is
/// missing or the denominator is zero).
std::optional<double> CounterRatio(const trace::MetricsRegistry& registry,
                                   const std::string& prefix,
                                   const char* num_event,
                                   const char* den_event) {
  const auto* num = registry.FindCounter(prefix + "." + num_event);
  const auto* den = registry.FindCounter(prefix + "." + den_event);
  if (num == nullptr || den == nullptr || den->value() <= 0) {
    return std::nullopt;
  }
  return static_cast<double>(num->value()) / static_cast<double>(den->value());
}

SweepCell HarvestCell(const trace::MetricsRegistry& registry,
                      const std::string& prefix,
                      const profile::PhaseStats& time) {
  SweepCell cell;
  cell.time = time;
  if (const auto* g = registry.FindGauge(prefix + ".imbalance_last");
      g != nullptr) {
    cell.imbalance = g->value();
  }
  if (const auto* g = registry.FindGauge(prefix + ".straggler_tid");
      g != nullptr) {
    cell.straggler_tid = static_cast<int>(g->value());
  }
  cell.ipc = CounterRatio(registry, prefix, "instructions", "cycles");
  cell.llc_miss_rate = CounterRatio(registry, prefix, "llc_misses", "llc_refs");
  return cell;
}

/// One layer phase's per-iteration samples, read off its `.us` histogram.
struct PhaseSamples {
  std::string layer;
  parallel::LayerPhase phase;
  std::string prefix;  ///< "layer.<layer>.<phase>"
  double seen_us = 0;  ///< histogram sum after the previous iteration
  profile::PhaseStats time;
};

}  // namespace

const SweepRow* ThreadSweep::Find(const std::string& layer,
                                  parallel::LayerPhase phase) const {
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
    std::vector<PhaseSamples> phases;
    for (const std::string& layer : net.layer_names()) {
      for (const auto phase : kPhases) {
        phases.push_back({layer, phase,
                          "layer." + parallel::LayerPhaseKey(layer, phase),
                          0.0, {}});
      }
    }
    registry.Reset();
    trace::SetMetrics(true);
    profile::PhaseStats& iteration = sweep.iteration[t];
    for (int i = 0; i < iterations; ++i) {
      net.ClearParamDiffs();
      profile::Timer timer;
      net.ForwardBackward();
      iteration.Add(timer.MicroSeconds());
      for (PhaseSamples& p : phases) {
        const trace::Histogram* us = registry.FindHistogram(p.prefix + ".us");
        if (us == nullptr) continue;  // the phase never runs
        p.time.Add(us->sum() - p.seen_us);
        p.seen_us = us->sum();
      }
    }
    trace::SetMetrics(false);

    for (const PhaseSamples& p : phases) {
      if (p.time.count() == 0) continue;
      auto row = std::find_if(
          sweep.rows.begin(), sweep.rows.end(), [&](const SweepRow& r) {
            return r.layer == p.layer && r.phase == p.phase;
          });
      if (row == sweep.rows.end()) {
        SweepRow fresh;
        fresh.layer = p.layer;
        fresh.type = net.layer_by_name(p.layer)->type();
        fresh.phase = p.phase;
        sweep.rows.push_back(std::move(fresh));
        row = std::prev(sweep.rows.end());
      }
      row->by_threads[t] = HarvestCell(registry, p.prefix, p.time);
    }
  }
  return sweep;
}

std::string LayerTimeTable(const std::vector<std::string>& layers,
                           const trace::MetricsRegistry& registry) {
  struct Row {
    std::string layer;
    const char* phase;
    const trace::Histogram* us;
  };
  std::vector<Row> rows;
  double total = 0.0;
  for (const std::string& layer : layers) {
    for (const auto phase : kPhases) {
      const trace::Histogram* us = registry.FindHistogram(
          "layer." + parallel::LayerPhaseKey(layer, phase) + ".us");
      if (us == nullptr || us->count() == 0) continue;
      rows.push_back({layer, parallel::LayerPhaseName(phase), us});
      total += us->mean();
    }
  }
  std::ostringstream os;
  os << std::left << std::setw(16) << "layer" << std::setw(10) << "phase"
     << std::right << std::setw(14) << "mean_us" << std::setw(14) << "min_us"
     << std::setw(9) << "share" << "\n";
  for (const Row& row : rows) {
    os << std::left << std::setw(16) << row.layer << std::setw(10) << row.phase
       << std::right << std::fixed << std::setprecision(1) << std::setw(14)
       << row.us->mean() << std::setw(14) << row.us->min() << std::setw(8)
       << (total > 0 ? 100.0 * row.us->mean() / total : 0.0) << "%\n";
  }
  os << std::left << std::setw(26) << "TOTAL (per iteration)" << std::right
     << std::fixed << std::setprecision(1) << std::setw(14) << total << "\n";
  return os.str();
}

std::string LayerTimeCsv(const ThreadSweep& sweep, int threads) {
  double total = 0.0;
  for (const SweepRow& row : sweep.rows) {
    if (const auto it = row.by_threads.find(threads);
        it != row.by_threads.end()) {
      total += it->second.time.mean_us();
    }
  }
  std::ostringstream os;
  os << "layer,phase,mean_us,min_us,max_us,stddev_us,p50_us,total_us,count,"
        "share\n";
  for (const SweepRow& row : sweep.rows) {
    const auto it = row.by_threads.find(threads);
    if (it == row.by_threads.end()) continue;
    const profile::PhaseStats& st = it->second.time;
    os << row.layer << ',' << parallel::LayerPhaseName(row.phase) << ','
       << st.mean_us() << ',' << st.min_us() << ',' << st.max_us() << ','
       << st.stddev_us() << ',' << st.p50_us() << ',' << st.total_us() << ','
       << st.count() << ',' << (total > 0 ? st.mean_us() / total : 0.0)
       << "\n";
  }
  return os.str();
}

}  // namespace cgdnn
