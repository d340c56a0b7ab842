// cgdnn_time — per-layer forward/backward timing of a network (the
// analogue of `caffe time`), i.e. the measurement underlying the paper's
// Figures 4 and 7.
//
//   cgdnn_time --model=models/lenet_train_test.prototxt
//              [--iterations=N] [--threads=N] [--merge=MODE] [--csv]
//              [--trace-out=trace.json] [--metrics-out=metrics.json]
//              [--counters]
//              [--blackbox=dump.bin] [--watchdog-sec=N] [--blackbox-dump]
//
// --model also accepts the builtin names "lenet" and "cifar10_quick"
// (synthetic data). --trace-out records a Chrome trace-event JSON of the
// timed iterations (open in chrome://tracing or Perfetto); --metrics-out
// dumps the metrics registry, including per-layer FLOPs / bytes / achieved
// GFLOP/s and per-layer-phase load-imbalance histograms. --counters additionally
// samples hardware performance counters (docs/observability.md) so spans
// and metrics carry cycles/instructions/LLC/IPC data where the host allows
// perf_event_open; unsupported hosts degrade to timing-only.
#include <iostream>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/net/thread_sweep.hpp"
#include "cgdnn/plan/layer_cost.hpp"
#include "flags.hpp"

namespace {
constexpr const char* kUsage =
    "cgdnn_time --model=<file|lenet|cifar10_quick> [--iterations=N] "
    "[--threads=N] [--merge=MODE] [--csv] [--trace-out=<file>] "
    "[--metrics-out=<file>] [--counters] [--blackbox=<file>] "
    "[--watchdog-sec=N] [--blackbox-dump]";
}

int main(int argc, char** argv) {
  using namespace cgdnn;
  try {
    const tools::Flags flags(argc, argv);
    const std::string model = flags.Require("model", kUsage);
    const index_t iterations = flags.GetInt("iterations", 10);
    tools::ConfigureParallel(flags);
    tools::ConfigureBlackbox(flags);

    SeedGlobalRng(1);
    Net<float> net(tools::ResolveModel(model), Phase::kTrain);
    std::cout << "timing " << net.name() << " ("
              << parallel::Parallel::ResolveThreads() << " thread(s), "
              << iterations << " iterations)\n";

    net.ForwardBackward();  // warmup + shape resolution

    // Arm tracing only for the measured iterations so the trace starts at
    // the first timed pass; the sweep arms metrics, the one per-layer sink.
    tools::Observability obs(flags);
    const int threads = parallel::Parallel::ResolveThreads();
    const ThreadSweep sweep =
        MeasureThreadSweep(net, {threads}, 0, static_cast<int>(iterations),
                           parallel::Parallel::Config());
    auto& registry = trace::MetricsRegistry::Default();
    if (flags.Has("metrics-out")) {
      // Per-layer work (FLOPs and bytes per pass) next to the runtime
      // histograms, with the GFLOP/s the fastest timed pass achieved.
      for (const plan::LayerCost& c : plan::NetLayerCosts(net)) {
        for (const auto phase : {parallel::LayerPhase::kForward,
                                 parallel::LayerPhase::kBackward}) {
          const bool fwd = phase == parallel::LayerPhase::kForward;
          const plan::PassCost& pass = fwd ? c.forward : c.backward;
          const std::string prefix =
              "layer." + parallel::LayerPhaseKey(c.name, phase);
          registry.GetGauge(prefix + ".flops").Set(pass.flops);
          registry.GetGauge(prefix + ".bytes").Set(pass.bytes);
          const SweepRow* row = sweep.Find(c.name, phase);
          const double us =
              row != nullptr ? row->by_threads.at(threads).time.min_us() : 0;
          if (pass.flops > 0 && us > 0) {
            registry.GetGauge(prefix + ".gflops").Set(pass.flops / (us * 1e3));
          }
        }
      }
    }
    obs.Finish();
    std::cout << (flags.GetBool("csv")
                      ? LayerTimeCsv(sweep, threads)
                      : LayerTimeTable(net.layer_names(), registry));
    tools::FinishBlackbox(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
