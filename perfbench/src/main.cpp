// perfbench: runs one workload and writes its raw samples for stats.py.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --out=<dir>
//
// Writes <dir>/raw.json, and <dir>/spans.json when tracing. Exits 0 when
// the run completed (correctness verdicts are in raw.json), 2 on bad
// arguments, 1 when the program under test threw.

#include <fstream>
#include <iostream>

#include "cgdnn/core/buildinfo.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Options;

/// Offered loads, in requests per second. Fixed: a faster server must not
/// be offered more load. serve-steady runs at kSteadyQps: at 200 req/s the
/// median request sat on the edge between batch-1 and batch-2 responses,
/// and its run-to-run spread (IQR/median 0.17-0.28 over five seeds on a
/// 4-core Xeon VM) exceeded any usable bound; at 100 req/s it is 0.10.
/// The traced run also offers kOverloadQps (about 1.7x the server's
/// capacity) for a short window, so admission, shedding and deadline
/// expiry stay measured.
constexpr double kSteadyQps = 100.0;
constexpr double kOverloadQps = 800.0;
/// Serve windows of the traced run, the same for every workload.
constexpr double kTracedSteadySeconds = 5.0;
constexpr double kTracedOverloadSeconds = 3.0;

std::string Isa() {
  std::string isa;
  const auto add = [&isa](bool has, const char* feature) {
    if (has) isa += (isa.empty() ? "" : ",") + std::string(feature);
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  return isa;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        opts->workload = value;
      } else if (key == "seed") {
        opts->seed = std::stoull(value);
      } else if (key == "seconds") {
        opts->seconds = std::stod(value);
      } else if (key == "trace") {
        opts->trace = value == "1";
      } else if (key == "out") {
        opts->out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const bool known = opts->workload == "train-lenet" ||
                     opts->workload == "train-cifar" ||
                     opts->workload == "serve-steady";
  return known && opts->seconds > 0 && !opts->out_dir.empty();
}

void WriteRaw(const Options& opts, const perfbench::Report& report) {
  std::ofstream os(opts.out_dir + "/raw.json");
  const cgdnn::buildinfo::Info& info = cgdnn::buildinfo::Get();
  os << "{\"workload\":" << perfbench::JsonString(opts.workload)
     << ",\"seed\":" << opts.seed << ",\"trace\":" << (opts.trace ? 1 : 0)
     << ",\"provenance\":{\"nproc\":" << perfbench::HostThreads()
     << ",\"isa\":" << perfbench::JsonString(Isa())
     << ",\"build_type\":" << perfbench::JsonString(info.build_type)
     << ",\"flags\":" << perfbench::JsonString(info.flags)
     << ",\"options\":" << perfbench::JsonString(info.options)
     << ",\"compiler\":" << perfbench::JsonString(info.compiler)
     << "},\"checks\":[";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const perfbench::Check& c = report.checks[i];
    os << (i ? "," : "") << "{\"name\":" << perfbench::JsonString(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << perfbench::JsonString(c.detail) << "}";
  }
  os << "],\"setup_s\":" << perfbench::JsonNumbers(report.setup_s)
     << ",\"peak_rss_kb\":" << perfbench::PeakRssKb();
  for (const auto& [key, value] : report.sections) {
    os << ",\n" << perfbench::JsonString(key) << ":" << value;
  }
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::cerr << "usage: perfbench --workload=<train-lenet|train-cifar|"
                 "serve-steady> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> --out=<dir>\n";
    return 2;
  }
  try {
    perfbench::Report report;
    if (opts.trace) {
      // One survey of every layer, whichever workload asked for it.
      perfbench::SpanRecorder spans;
      perfbench::RunTrainSurvey(opts, &report, &spans);
      perfbench::PlanProbe(opts, &spans);
      perfbench::RunServe(opts, kSteadyQps, kTracedSteadySeconds, "serve",
                          &report, &spans);
      perfbench::RunServe(opts, kOverloadQps, kTracedOverloadSeconds,
                          "serve_overload", &report, &spans);
      std::ofstream os(opts.out_dir + "/spans.json");
      spans.WriteJson(os);
    } else if (opts.workload == "serve-steady") {
      perfbench::RunServe(opts, kSteadyQps, opts.seconds, "serve", &report,
                          nullptr);
    } else {
      perfbench::RunTrain(opts, opts.workload.substr(6), &report);
    }
    WriteRaw(opts, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
