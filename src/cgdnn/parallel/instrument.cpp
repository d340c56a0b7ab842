#include "cgdnn/parallel/instrument.hpp"

#include <algorithm>
#include <string>

#include "cgdnn/trace/counters.hpp"
#include "cgdnn/trace/metrics.hpp"

namespace cgdnn::parallel {

namespace {
thread_local LayerPhaseScope* t_current = nullptr;
}  // namespace

const char* LayerPhaseName(LayerPhase phase) {
  return phase == LayerPhase::kForward ? "forward" : "backward";
}

std::string LayerPhaseKey(const std::string& layer, LayerPhase phase) {
  return layer + "." + LayerPhaseName(phase);
}

LayerPhaseScope::LayerPhaseScope(const char* name, LayerPhase phase)
    : name_(name), phase_(phase), saved_(t_current) {
  t_current = this;
  blackbox::PushPosition(blackbox::EventKind::kLayerBegin, name_,
                         static_cast<std::uint64_t>(phase_));
  if (!trace::CollectionActive()) return;
  active_ = true;
  counters_active_ = perfctr::CollectionActive();
  if (counters_active_) start_sample_ = perfctr::ReadThreadCounters();
  start_ns_ = trace::NowNs();
}

LayerPhaseScope* LayerPhaseScope::Current() { return t_current; }

void LayerPhaseScope::BeginTeam(int nthreads) {
  if (!active_) return;
  const auto slots = static_cast<std::size_t>(std::max(nthreads, 1));
  if (busy_ns_.size() < slots) busy_ns_.resize(slots, 0);
  if (counters_active_ && deltas_.size() < slots) deltas_.resize(slots);
}

void LayerPhaseScope::AddThreadBusyNs(int tid, std::uint64_t busy_ns) {
  if (tid >= 0 && static_cast<std::size_t>(tid) < busy_ns_.size()) {
    busy_ns_[static_cast<std::size_t>(tid)] += busy_ns;
  }
}

void LayerPhaseScope::AddThreadDelta(int tid, const perfctr::Delta& delta) {
  if (tid >= 0 && static_cast<std::size_t>(tid) < deltas_.size()) {
    deltas_[static_cast<std::size_t>(tid)].Accumulate(delta);
  }
}

double LayerPhaseScope::ImbalanceRatio() const {
  std::uint64_t max_ns = 0, total_ns = 0;
  std::size_t busy_threads = 0;
  for (const std::uint64_t ns : busy_ns_) {
    if (ns == 0) continue;
    ++busy_threads;
    total_ns += ns;
    max_ns = std::max(max_ns, ns);
  }
  if (busy_threads == 0 || total_ns == 0) return 0.0;
  const double mean =
      static_cast<double>(total_ns) / static_cast<double>(busy_threads);
  return static_cast<double>(max_ns) / mean;
}

int LayerPhaseScope::StragglerTid() const {
  std::uint64_t max_ns = 0;
  int straggler = -1;
  for (std::size_t tid = 0; tid < busy_ns_.size(); ++tid) {
    if (busy_ns_[tid] > max_ns) {
      max_ns = busy_ns_[tid];
      straggler = static_cast<int>(tid);
    }
  }
  return straggler;
}

LayerPhaseScope::~LayerPhaseScope() {
  t_current = saved_;
  if (active_) {
    const std::uint64_t end_ns = trace::NowNs();
    // The opening thread is the team's tid 0: its counters are sampled over
    // the whole phase here, so its chunk deltas (slot 0) are not re-added.
    perfctr::Delta own;
    if (start_sample_.valid) {
      own = perfctr::ComputeDelta(start_sample_,
                                  perfctr::ReadThreadCounters());
    }
    if (trace::TracingActive()) {
      trace::Tracer::Get().Emit("layer", name_, start_ns_, end_ns,
                                trace::CounterTraceArgs(own));
    }
    if (trace::MetricsActive()) {
      auto& registry = trace::MetricsRegistry::Default();
      const std::string prefix = std::string("layer.") + name_;
      registry.GetHistogram(prefix + ".us")
          .Observe(static_cast<double>(end_ns - start_ns_) / 1e3);
      const double ratio = ImbalanceRatio();
      if (ratio > 0.0) {
        registry.GetHistogram(prefix + ".imbalance").Observe(ratio);
        registry.GetGauge(prefix + ".imbalance_last").Set(ratio);
        registry.GetGauge(prefix + ".straggler_tid")
            .Set(static_cast<double>(StragglerTid()));
      }
      for (std::size_t tid = 1; tid < deltas_.size(); ++tid) {
        own.Accumulate(deltas_[tid]);
      }
      trace::RecordCounterDeltaMetrics(prefix, own, registry);
    }
  }
  blackbox::PopPosition(blackbox::EventKind::kLayerEnd, name_,
                        static_cast<std::uint64_t>(phase_));
}

}  // namespace cgdnn::parallel
