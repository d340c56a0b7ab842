// cgdnn_train — train a network from a solver prototxt (the analogue of
// `caffe train`).
//
//   cgdnn_train --solver=models/lenet_solver.prototxt
//               [--threads=N] [--merge=ordered|atomic|tree] [--no-coalesce]
//               [--weights=init.cgdnn] [--snapshot=out.cgdnn]
//               [--iterations=N]            (overrides solver max_iter)
//               [--snapshot-every=N]        (periodic full-state checkpoints)
//               [--snapshot-prefix=P]       (default cgdnn_ckpt)
//               [--snapshot-retain=K]       (keep newest K, default 3)
//               [--resume=<file|prefix>]    (continue from a checkpoint)
//               [--profile]                 (Figure-4-style layer table;
//                                            test passes of same-named
//                                            layers count too)
//               [--trace-out=trace.json] [--metrics-out=metrics.json]
//               [--telemetry-out=train.jsonl] [--counters]
//               [--blackbox=dump.bin] [--watchdog-sec=N] [--blackbox-dump]
//
// The solver file may inline its net (`net_param { ... }`) or reference an
// external prototxt via `net: "relative/path.prototxt"` (resolved relative
// to the solver file). --telemetry-out streams one JSON object per training
// iteration (iter, loss, lr, imgs/sec, RSS); --trace-out records a Chrome
// trace-event JSON of the whole run.
//
// Checkpointing (docs/robustness.md): --snapshot-every writes crash-safe
// full-training-state checkpoints every N iterations; SIGINT/SIGTERM stop
// training on the next iteration boundary, flush any --trace-out/
// --metrics-out/--telemetry-out sinks, and write a final checkpoint.
// --resume accepts either a concrete .cgdnnckpt file or a snapshot prefix;
// a corrupt newest snapshot falls back to the previous retained one, and
// the resumed run is bit-identical to one that was never interrupted.
#include <atomic>
#include <csignal>
#include <filesystem>
#include <iostream>

#include "cgdnn/net/checkpoint.hpp"
#include "cgdnn/net/serialization.hpp"
#include "cgdnn/net/thread_sweep.hpp"
#include "cgdnn/solvers/solver.hpp"
#include "flags.hpp"

namespace {
constexpr const char* kUsage =
    "cgdnn_train --solver=<file> [--threads=N] [--merge=MODE] "
    "[--weights=<file>] [--snapshot=<file>] [--iterations=N] "
    "[--snapshot-every=N] [--snapshot-prefix=P] [--snapshot-retain=K] "
    "[--resume=<file|prefix>] [--profile] [--trace-out=<file>] "
    "[--metrics-out=<file>] [--telemetry-out=<file>] [--counters] "
    "[--blackbox=<file>] [--watchdog-sec=N] [--blackbox-dump]";

std::atomic<bool> g_stop{false};

extern "C" void HandleStopSignal(int /*signum*/) { g_stop.store(true); }

/// Snapshot prefix for a `--resume` value naming a concrete snapshot file,
/// or "" when the name does not follow the `<prefix>[_emergency]_iter_<N>`
/// convention.
std::string PrefixOfSnapshotFile(const std::string& path) {
  for (const char* marker : {"_emergency_iter_", "_iter_"}) {
    const auto pos = path.rfind(marker);
    if (pos != std::string::npos) return path.substr(0, pos);
  }
  return "";
}
}  // namespace

int main(int argc, char** argv) {
  using namespace cgdnn;
  try {
    const tools::Flags flags(argc, argv);
    const std::string solver_path = flags.Require("solver", kUsage);
    tools::ConfigureParallel(flags);
    tools::ConfigureBlackbox(flags);

    auto param = proto::SolverParameter::FromText(
        proto::TextMessage::ParseFile(solver_path));
    if (!param.net.empty()) {
      const auto net_path =
          std::filesystem::path(solver_path).parent_path() / param.net;
      param.net_param = proto::NetParameter::FromFile(net_path.string());
    }
    if (flags.Has("iterations")) {
      param.max_iter = flags.GetInt("iterations", param.max_iter);
    }
    if (param.display == 0) {
      param.display = std::max<index_t>(1, param.max_iter / 10);
    }
    if (flags.Has("snapshot-every")) {
      param.snapshot = flags.GetInt("snapshot-every", 0);
    }
    if (flags.Has("snapshot-prefix")) {
      param.snapshot_prefix = flags.GetString("snapshot-prefix");
    } else if (param.snapshot > 0 && param.snapshot_prefix.empty()) {
      param.snapshot_prefix = "cgdnn_ckpt";
    }
    if (flags.Has("snapshot-retain")) {
      param.snapshot_retain = flags.GetInt("snapshot-retain", 3);
    }

    const auto solver = CreateSolver<float>(param);
    if (flags.Has("weights")) {
      const std::size_t n =
          LoadWeights(solver->net(), flags.GetString("weights"));
      std::cout << "restored " << n << " layers from "
                << flags.GetString("weights") << "\n";
    }
    if (flags.Has("resume")) {
      const std::string resume = flags.GetString("resume");
      std::string restored;
      std::error_code ec;
      if (std::filesystem::is_regular_file(resume, ec)) {
        try {
          solver->Restore(resume);
          restored = resume;
        } catch (const std::exception& e) {
          const std::string prefix = PrefixOfSnapshotFile(resume);
          if (prefix.empty()) throw;
          std::cerr << "warning: cannot restore " << resume << " ("
                    << e.what() << "); falling back to older snapshots\n";
          restored = solver->RestoreLatest(prefix);
        }
      } else {
        restored = solver->RestoreLatest(resume);
      }
      std::cout << "resumed from " << restored << " at iteration "
                << solver->iter() << "\n";
    }

    // Stop on an iteration boundary and checkpoint instead of dying with
    // work lost.
    solver->set_stop_flag(&g_stop);
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);

    tools::Observability obs(flags);
    solver->set_telemetry(obs.telemetry());
    // --profile reads its table off the metrics registry, the one sink of
    // per-layer timing, so it arms metrics collection for the run.
    const bool profile = flags.GetBool("profile");
    if (profile) trace::SetMetrics(true);

    std::cout << "training " << solver->net().name() << " ("
              << parallel::Parallel::ResolveThreads() << " thread(s), merge="
              << parallel::GradientMergeName(
                     parallel::Parallel::Config().merge)
              << ") for " << param.max_iter << " iterations\n";
    solver->Solve();
    const bool interrupted = g_stop.load();
    if (interrupted) {
      // Flush trace/metrics/telemetry before the final checkpoint write so
      // a second signal arriving mid-snapshot cannot cost the run's
      // observability output. Finish() is idempotent; the later call on the
      // common path becomes a no-op.
      solver->set_telemetry(nullptr);
      obs.Finish();
    }
    if (interrupted && !param.snapshot_prefix.empty()) {
      const std::string path =
          SnapshotPath(param.snapshot_prefix, solver->iter());
      solver->Snapshot(path);
      std::cerr << "interrupted at iteration " << solver->iter()
                << "; checkpoint saved to " << path << "\n";
    } else if (interrupted) {
      std::cerr << "interrupted at iteration " << solver->iter()
                << " (no --snapshot-prefix, nothing saved)\n";
    }
    if (!solver->loss_history().empty()) {
      std::cout << "final loss: " << solver->loss_history().back() << "\n";
    }
    solver->set_telemetry(nullptr);
    obs.Finish();
    if (profile) {
      trace::SetMetrics(false);
      std::cout << LayerTimeTable(solver->net().layer_names(),
                                  trace::MetricsRegistry::Default());
    }
    if (!interrupted && solver->test_net() != nullptr) {
      for (const auto& [name, value] : solver->TestAll()) {
        std::cout << "test " << name << " = " << value << "\n";
      }
    }

    if (!interrupted && flags.Has("snapshot")) {
      SaveWeights(solver->net(), flags.GetString("snapshot"));
      std::cout << "weights saved to " << flags.GetString("snapshot") << "\n";
    }
    tools::FinishBlackbox(flags);
    return interrupted ? 130 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
