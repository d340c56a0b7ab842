// Shared declarations of the benchmark driver.
//
// The driver measures cgdnn from outside: every number comes from timing a
// call into the library's public API (Solver::Step, Net/Layer passes,
// blas::gemm, parallel::AccumulatePrivate, serve::Server, plan, data). It
// never reads the library's own recorders, so replacing those recorders
// cannot change what the benchmark reports. The driver only records raw
// samples; perfbench/stats.py turns them into the reported metrics.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< receives raw.json (and spans.json when tracing)
};

/// One correctness verdict; any failed check fails the run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Bench-side spans around calls into the library. Spans stay in memory
/// and are written out once, at exit. Not thread-safe: only the thread that
/// owns the recorder opens scopes.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t id = 0;      ///< step / repetition / request id
    int threads = 0;           ///< parallel thread count the call ran at
  };

  /// Times one call. A null recorder makes the scope a no-op, so traced
  /// and untraced code paths are the same code.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name, std::uint64_t id, int threads);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int64_t index_ = -1;
  };

  /// Records a span measured elsewhere (e.g. a request's submit call),
  /// keeping its `parent` as given; returns its index.
  std::int64_t Add(Span span);
  void WriteJson(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Raw results of one run, written as raw.json for stats.py.
struct Report {
  std::vector<Check> checks;
  std::vector<double> setup_s;
  /// Extra top-level members, each already serialized as a JSON value.
  std::vector<std::pair<std::string, std::string>> sections;
};

std::string JsonString(const std::string& s);
std::string JsonNumbers(const std::vector<double>& values);

/// Peak resident set size of this process, in KiB.
long PeakRssKb();

/// Threads the coarse-grain workloads use: every core of the host.
int HostThreads();

/// Dataset/weight seeds derived from the run seed, one stream per use, so
/// that changing how one input is generated leaves the others unchanged.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// ---- workloads (train.cpp, serve.cpp) -------------------------------------

/// Closed loop of Solver::Step(1) on `net` ("lenet" or "cifar") at
/// T = HostThreads(), ordered merge.
void RunTrain(const Options& opts, const std::string& net, Report* report);

/// Fixed-rate open-loop serving of cifar10_quick for `window_s` seconds.
/// Raw samples go to report section `section`, which also prefixes span
/// names. `spans` may be null.
void RunServe(const Options& opts, double rate_qps, double window_s,
              const std::string& section, Report* report, SpanRecorder* spans);

/// Spans around plan::BuildPlan on the largest serving bucket.
void PlanProbe(const Options& opts, SpanRecorder* spans);

/// Traced survey of both training nets: a self-driven layer loop with spans
/// around every Layer::Forward/Backward at T = 1 and T = HostThreads(),
/// plus gemm, merge, plan and dataset probes.
void RunTrainSurvey(const Options& opts, Report* report, SpanRecorder* spans);

}  // namespace perfbench
