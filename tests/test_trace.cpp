#include "cgdnn/trace/trace.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/merge.hpp"
#include "cgdnn/parallel/region.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/telemetry.hpp"

namespace cgdnn::trace {
namespace {

/// Minimal recursive-descent JSON syntax checker, enough to verify that the
/// exporters emit well-formed documents without a JSON library dependency.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker c(text);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string s(lit);
    if (text_.compare(pos_, s.size(), s) != 0) return false;
    pos_ += s.size();
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Starts tracing for one test and guarantees Stop() on exit.
class TracingScope {
 public:
  TracingScope() {
    Tracer::Get().Clear();
    Tracer::Get().Start();
  }
  ~TracingScope() { Tracer::Get().Stop(); }
};

TEST(TraceSwitches, DefaultOff) {
  EXPECT_FALSE(TracingActive());
  EXPECT_FALSE(MetricsActive());
  EXPECT_FALSE(CollectionActive());
  { TRACE_SCOPE("test", "noop"); }  // must not record anything
  EXPECT_EQ(Tracer::Get().Events().size(), Tracer::Get().event_count());
}

TEST(Tracer, CapturesNestedSpans) {
  TracingScope tracing;
  {
    TRACE_SCOPE("test", "outer");
    TRACE_SCOPE("test", "inner");
  }
  const auto events = Tracer::Get().Events();
  ASSERT_EQ(events.size(), 2u);
  // Inner scope is destroyed first, so it is emitted first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_STREQ(inner.category, "test");
  // Proper nesting: inner starts at/after outer and ends at/before it.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST(Tracer, ClearDropsEvents) {
  TracingScope tracing;
  { TRACE_SCOPE("test", "dropped"); }
  EXPECT_GE(Tracer::Get().event_count(), 1u);
  Tracer::Get().Clear();
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST(Tracer, WritesValidChromeTraceJson) {
  TracingScope tracing;
  {
    TRACE_SCOPE("layer", "conv1.forward");
    TRACE_SCOPE("test", "quote\"backslash\\newline\n");
  }
  std::ostringstream os;
  Tracer::Get().WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_EQ(json.front(), '[');
  // Chrome trace-event required fields.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"conv1.forward\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"layer\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  // Control characters and quotes must be escaped, never raw.
  EXPECT_NE(json.find("quote\\\"backslash\\\\newline\\n"), std::string::npos);
}

TEST(Tracer, ConcurrentEmissionLosesNothing) {
  // The tentpole's thread-safety claim: 16 oversubscribed OpenMP threads
  // hammer the tracer; every event must arrive intact on its own timeline.
  constexpr int kThreads = 16;
  constexpr int kSpansPerThread = 200;
  TracingScope tracing;
  parallel::Parallel::Config();  // omp_set_dynamic(0): exact team sizes
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    for (int i = 0; i < kSpansPerThread; ++i) {
      std::string span_name = "t";
      span_name += std::to_string(tid);
      span_name += ".s";
      span_name += std::to_string(i);
      Tracer::Get().Emit("stress", span_name, NowNs(), NowNs());
    }
  }
  const auto events = Tracer::Get().Events();
  const int team = []() {
    int n = 0;
#pragma omp parallel num_threads(kThreads)
#pragma omp single
    n = omp_get_num_threads();
    return n;
  }();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(team) * kSpansPerThread);
  // No torn names, and each logical thread's events landed on one tid.
  std::set<std::string> names;
  std::map<std::string, int> logical_to_tid;
  for (const auto& e : events) {
    names.insert(e.name);
    const std::string logical = e.name.substr(0, e.name.find('.'));
    const auto it = logical_to_tid.find(logical);
    if (it == logical_to_tid.end()) {
      logical_to_tid[logical] = e.tid;
    } else {
      EXPECT_EQ(it->second, e.tid) << "events of " << logical << " split";
    }
  }
  EXPECT_EQ(names.size(), events.size()) << "duplicate or torn event names";
  EXPECT_GE(Tracer::Get().thread_count(), static_cast<std::size_t>(team));
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 is (-inf, 1]; bucket i is (2^(i-1), 2^i]; last is overflow.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.001), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.001), 2);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025.0), 11);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024.0);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
  // Every observable value must land in the bucket whose bound covers it.
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    const double ub = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(ub), i) << "upper bound of bucket " << i;
  }
}

TEST(Histogram, ObserveAccumulatesStats) {
  Histogram h;
  h.Observe(0.5);
  h.Observe(3.0);
  h.Observe(3.5);
  h.Observe(1e300);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);  // (2, 4]
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 1u);
}

TEST(MetricsRegistry, CountersGaugesAndKindMismatch) {
  MetricsRegistry reg;
  reg.GetCounter("c").Add(3);
  reg.GetCounter("c").Add(2);
  EXPECT_EQ(reg.GetCounter("c").value(), 5);
  reg.GetGauge("g").Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g").value(), 2.5);
  EXPECT_THROW(reg.GetGauge("c"), Error);
  EXPECT_THROW(reg.GetHistogram("g"), Error);
  reg.Reset();
  EXPECT_EQ(reg.GetCounter("c").value(), 0);
}

TEST(MetricsRegistry, WritesValidJson) {
  MetricsRegistry reg;
  reg.GetCounter("merge.ordered.invocations").Add(7);
  reg.GetGauge("layer.conv1.forward.gflops").Set(12.25);
  auto& h = reg.GetHistogram("layer.conv1.forward.imbalance");
  h.Observe(1.0);
  h.Observe(1.5);
  std::ostringstream os;
  reg.WriteJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("merge.ordered.invocations"), std::string::npos);
  EXPECT_NE(json.find("layer.conv1.forward.gflops"), std::string::npos);
  EXPECT_NE(json.find("layer.conv1.forward.imbalance"), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
}

TEST(LayerPhaseScope, ImbalanceRatioIsMaxOverMean) {
  // The phase scope only collects while tracing or metrics are active.
  MetricsRegistry::Default().Reset();
  SetMetrics(true);
  {
    parallel::LayerPhaseScope phase("test.region",
                                    parallel::LayerPhase::kForward);
    phase.BeginTeam(4);
    phase.AddThreadBusyNs(0, 1000);
    phase.AddThreadBusyNs(1, 1000);
    phase.AddThreadBusyNs(2, 1000);
    phase.AddThreadBusyNs(3, 5000);
    // mean = 2000, max = 5000.
    EXPECT_DOUBLE_EQ(phase.ImbalanceRatio(), 2.5);
    EXPECT_EQ(phase.StragglerTid(), 3);
  }
  SetMetrics(false);
  auto& reg = MetricsRegistry::Default();
  EXPECT_EQ(reg.GetHistogram("layer.test.region.us").count(), 1u);
  EXPECT_EQ(reg.GetHistogram("layer.test.region.imbalance").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("layer.test.region.imbalance_last").value(),
                   2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("layer.test.region.straggler_tid").value(),
                   3.0);
}

TEST(LayerPhaseScope, InertWhenCollectionDisabled) {
  ASSERT_FALSE(CollectionActive());
  MetricsRegistry::Default().Reset();
  {
    parallel::LayerPhaseScope phase("test.inert",
                                    parallel::LayerPhase::kForward);
    EXPECT_FALSE(phase.active());
    phase.BeginTeam(4);
    phase.AddThreadBusyNs(0, 1000);
    EXPECT_DOUBLE_EQ(phase.ImbalanceRatio(), 0.0);
  }
  EXPECT_EQ(MetricsRegistry::Default().FindHistogram("layer.test.inert.us"),
            nullptr);
}

TEST(LayerPhaseScope, SerialPhaseRecordsTimeButNoImbalance) {
  MetricsRegistry::Default().Reset();
  SetMetrics(true);
  {
    parallel::LayerPhaseScope phase("test.serial",
                                    parallel::LayerPhase::kBackward);
  }
  SetMetrics(false);
  const auto& reg = MetricsRegistry::Default();
  EXPECT_NE(reg.FindHistogram("layer.test.serial.us"), nullptr);
  EXPECT_EQ(reg.FindGauge("layer.test.serial.imbalance_last"), nullptr);
  EXPECT_EQ(reg.FindGauge("layer.test.serial.straggler_tid"), nullptr);
}

TEST(LayerPhaseScope, NestedPhaseRestoresTheOuterOne) {
  ASSERT_EQ(parallel::LayerPhaseScope::Current(), nullptr);
  {
    parallel::LayerPhaseScope outer("outer.forward",
                                    parallel::LayerPhase::kForward);
    EXPECT_EQ(parallel::LayerPhaseScope::Current(), &outer);
    {
      parallel::LayerPhaseScope inner("inner.forward",
                                      parallel::LayerPhase::kForward);
      EXPECT_EQ(parallel::LayerPhaseScope::Current(), &inner);
    }
    EXPECT_EQ(parallel::LayerPhaseScope::Current(), &outer);
  }
  EXPECT_EQ(parallel::LayerPhaseScope::Current(), nullptr);
}

// A region inside a phase shows up as one `layer` span on the opening
// thread and one `region` span per team thread, and feeds its per-thread
// busy time into the phase's metrics.
TEST(LayerPhaseScope, RegionReportsIntoTheOpenPhase) {
  constexpr int kTeam = 4;
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = kTeam;
  parallel::Parallel::Scope scope(cfg);
  MetricsRegistry::Default().Reset();
  SetMetrics(true);
  std::vector<double> y(4096, 0.0);
  {
    TracingScope tracing;
    parallel::LayerPhaseScope phase("team.forward",
                                    parallel::LayerPhase::kForward);
    parallel::ForEachChunk(static_cast<index_t>(y.size()),
                           [&](const parallel::Chunk& c) {
                             for (index_t i = c.begin; i < c.end; ++i) {
                               y[static_cast<std::size_t>(i)] =
                                   std::sqrt(static_cast<double>(i));
                             }
                           });
  }
  SetMetrics(false);
  std::size_t layer_spans = 0;
  std::set<int> region_tids;
  for (const TraceEvent& e : Tracer::Get().Events()) {
    if (e.name != "team.forward") continue;
    if (std::string(e.category) == "layer") ++layer_spans;
    if (std::string(e.category) == "region") region_tids.insert(e.tid);
  }
  Tracer::Get().Clear();
  EXPECT_EQ(layer_spans, 1u);
  EXPECT_EQ(region_tids.size(), static_cast<std::size_t>(kTeam));
  const auto& reg = MetricsRegistry::Default();
  const Gauge* straggler = reg.FindGauge("layer.team.forward.straggler_tid");
  ASSERT_NE(straggler, nullptr);
  EXPECT_GE(straggler->value(), 0.0);
  EXPECT_LT(straggler->value(), kTeam);
  const Gauge* imbalance = reg.FindGauge("layer.team.forward.imbalance_last");
  ASSERT_NE(imbalance, nullptr);
  EXPECT_GE(imbalance->value(), 1.0);
}

// One namespace for every layer phase: a LeNet pass at T=4 leaves no
// `region.*` key, and every phase that ran a team carries its imbalance
// attribution under `layer.<layer>.<phase>.`.
TEST(LayerPhaseMetrics, LenetAtFourThreadsUsesOneNamespace) {
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = 4;
  parallel::Parallel::Scope scope(cfg);
  SeedGlobalRng(7);
  models::ModelOptions opts;
  opts.batch_size = 16;
  Net<float> net(models::LeNet(opts), Phase::kTrain);
  MetricsRegistry::Default().Reset();
  SetMetrics(true);
  std::set<std::string> parallel_phases;
  {
    TracingScope tracing;
    net.ForwardBackward();
  }
  SetMetrics(false);
  for (const TraceEvent& e : Tracer::Get().Events()) {
    if (std::string(e.category) == "region") parallel_phases.insert(e.name);
  }
  Tracer::Get().Clear();
  ASSERT_FALSE(parallel_phases.empty());

  const auto& reg = MetricsRegistry::Default();
  std::ostringstream os;
  reg.WriteJson(os);
  EXPECT_EQ(os.str().find("\"region."), std::string::npos) << os.str();
  for (const std::string& name : net.layer_names()) {
    EXPECT_NE(reg.FindHistogram("layer." + name + ".forward.us"), nullptr)
        << name;
  }
  for (const std::string& phase : parallel_phases) {
    EXPECT_NE(reg.FindGauge("layer." + phase + ".imbalance_last"), nullptr)
        << phase;
    EXPECT_NE(reg.FindGauge("layer." + phase + ".straggler_tid"), nullptr)
        << phase;
  }
}

TEST(Telemetry, WritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "cgdnn_telemetry_test.jsonl";
  {
    TelemetrySink sink(path);
    sink.Write({{"iter", 1.0}, {"loss", 0.25}});
    sink.Write({{"iter", 2.0},
                {"loss", std::numeric_limits<double>::quiet_NaN()}});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& l : lines) {
    EXPECT_TRUE(JsonChecker::Valid(l)) << l;
  }
  // Line 0 is the provenance header; the data rows follow.
  EXPECT_NE(lines[0].find("\"meta\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"git_sha\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"iter\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"loss\":null"), std::string::npos)
      << "non-finite values must serialize as null";
}

/// The merge paths must stay correct and lose no events when traced under
/// heavy oversubscription, for every GradientMerge mode.
class TracedMerge : public ::testing::TestWithParam<parallel::GradientMerge> {};

TEST_P(TracedMerge, SixteenThreadStress) {
  using parallel::GradientMerge;
  constexpr int kThreads = 16;
  constexpr index_t kN = 129;
  parallel::Parallel::Config();  // omp_set_dynamic(0): exact team sizes

  std::vector<std::vector<float>> parts;
  for (int t = 0; t < kThreads; ++t) {
    parts.emplace_back(static_cast<std::size_t>(kN),
                       static_cast<float>(t + 1));
  }
  std::vector<float> expected(static_cast<std::size_t>(kN), 0.0f);
  for (const auto& p : parts) {
    blas::axpy(kN, 1.0f, p.data(), expected.data());
  }

  TracingScope tracing;
  MetricsRegistry::Default().Reset();
  SetMetrics(true);
  std::vector<float> dest(static_cast<std::size_t>(kN), 0.0f);
  std::vector<float*> ptrs;
  for (auto& p : parts) ptrs.push_back(p.data());
#pragma omp parallel num_threads(kThreads)
  {
    parallel::AccumulatePrivate(GetParam(), ptrs.data(), kThreads,
                                dest.data(), kN);
  }
  SetMetrics(false);

  for (std::size_t i = 0; i < dest.size(); ++i) {
    ASSERT_NEAR(dest[i], expected[i], 1e-3f) << "element " << i;
  }

  const std::string mode = parallel::GradientMergeName(GetParam());
  std::size_t merge_spans = 0;
  std::set<int> tids;
  for (const auto& e : Tracer::Get().Events()) {
    if (e.name == "merge." + mode) {
      ++merge_spans;
      tids.insert(e.tid);
    }
  }
  // One span per participating thread, each on its own timeline.
  EXPECT_EQ(merge_spans, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  auto& reg = MetricsRegistry::Default();
  EXPECT_EQ(reg.GetCounter("merge." + mode + ".invocations").value(), 1);
  EXPECT_EQ(reg.GetHistogram("merge." + mode + ".thread_us").count(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(reg.GetHistogram("merge." + mode + ".wait_us").count(),
            static_cast<std::uint64_t>(kThreads));
}

INSTANTIATE_TEST_SUITE_P(Modes, TracedMerge,
                         ::testing::Values(parallel::GradientMerge::kOrdered,
                                           parallel::GradientMerge::kAtomic,
                                           parallel::GradientMerge::kTree),
                         [](const auto& tpi) {
                           return parallel::GradientMergeName(tpi.param);
                         });

}  // namespace
}  // namespace cgdnn::trace
