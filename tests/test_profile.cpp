#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>

#include "cgdnn/net/thread_sweep.hpp"
#include "cgdnn/profile/phase_stats.hpp"
#include "cgdnn/profile/timer.hpp"
#include "cgdnn/trace/metrics.hpp"

namespace cgdnn::profile {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double us = timer.MicroSeconds();
  EXPECT_GE(us, 4000.0);
  EXPECT_LT(us, 500000.0);
  EXPECT_NEAR(timer.MilliSeconds(), timer.MicroSeconds() / 1e3,
              timer.MicroSeconds() * 0.5);
}

TEST(Timer, RestartResets) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  timer.Restart();
  EXPECT_LT(timer.MicroSeconds(), 3000.0);
}

TEST(PhaseStats, Aggregates) {
  PhaseStats stats;
  stats.Add(10.0);
  stats.Add(20.0);
  stats.Add(30.0);
  EXPECT_DOUBLE_EQ(stats.total_us(), 60.0);
  EXPECT_DOUBLE_EQ(stats.mean_us(), 20.0);
  EXPECT_DOUBLE_EQ(stats.min_us(), 10.0);
  EXPECT_DOUBLE_EQ(stats.max_us(), 30.0);
  EXPECT_EQ(stats.count(), 3u);
}

TEST(PhaseStats, EmptyIsZero) {
  PhaseStats stats;
  EXPECT_DOUBLE_EQ(stats.total_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev_us(), 0.0);
  EXPECT_DOUBLE_EQ(stats.p50_us(), 0.0);
}

TEST(PhaseStats, SpreadStatistics) {
  PhaseStats stats;
  stats.Add(10.0);
  stats.Add(20.0);
  stats.Add(90.0);
  // Population stddev of {10, 20, 90} around mean 40.
  EXPECT_NEAR(stats.stddev_us(), std::sqrt((900.0 + 400.0 + 2500.0) / 3.0),
              1e-9);
  EXPECT_DOUBLE_EQ(stats.p50_us(), 20.0);
  // Single sample: no spread, median is the sample.
  PhaseStats one;
  one.Add(42.0);
  EXPECT_DOUBLE_EQ(one.stddev_us(), 0.0);
  EXPECT_DOUBLE_EQ(one.p50_us(), 42.0);
  // Even count: lower median (order-statistic, not interpolated).
  PhaseStats even;
  even.Add(4.0);
  even.Add(1.0);
  even.Add(3.0);
  even.Add(2.0);
  EXPECT_DOUBLE_EQ(even.p50_us(), 2.0);
}

// Per-layer profiling: the Figure 4/7 table reads the
// `layer.<layer>.<phase>.us` histograms the layer phase scopes feed, in
// network order (the order the phases first record).
TEST(Profiler, RecordsPerLayerPerPhase) {
  trace::MetricsRegistry registry;
  registry.GetHistogram("layer.conv1.forward.us").Observe(100.0);
  registry.GetHistogram("layer.conv1.forward.us").Observe(120.0);
  registry.GetHistogram("layer.conv1.backward.us").Observe(300.0);
  registry.GetHistogram("layer.pool1.forward.us").Observe(50.0);
  const std::string table =
      LayerTimeTable({"conv1", "pool1", "ghost"}, registry);
  // Mean and min per phase; a phase that never ran has no row.
  EXPECT_NE(table.find("110.0"), std::string::npos) << table;
  EXPECT_NE(table.find("100.0"), std::string::npos) << table;
  EXPECT_NE(table.find("300.0"), std::string::npos) << table;
  EXPECT_EQ(table.find("pool1           backward"), std::string::npos)
      << table;
  EXPECT_EQ(table.find("ghost"), std::string::npos) << table;
  // The total is the sum of the phase means: one iteration.
  EXPECT_NE(table.find("460.0"), std::string::npos) << table;
}

TEST(Profiler, OrderFollowsFirstRecording) {
  trace::MetricsRegistry registry;
  registry.GetHistogram("layer.a.forward.us").Observe(1.0);
  registry.GetHistogram("layer.b.forward.us").Observe(1.0);
  registry.GetHistogram("layer.b.backward.us").Observe(1.0);
  const std::string table = LayerTimeTable({"b", "a"}, registry);
  const auto b_fwd = table.find("b               forward");
  const auto b_bwd = table.find("b               backward");
  const auto a_fwd = table.find("a               forward");
  ASSERT_NE(b_fwd, std::string::npos) << table;
  ASSERT_NE(b_bwd, std::string::npos) << table;
  ASSERT_NE(a_fwd, std::string::npos) << table;
  EXPECT_LT(b_fwd, b_bwd);
  EXPECT_LT(b_bwd, a_fwd);
}

TEST(Profiler, TableAndCsvContainLayers) {
  trace::MetricsRegistry registry;
  registry.GetHistogram("layer.conv1.forward.us").Observe(75.0);
  registry.GetHistogram("layer.conv1.backward.us").Observe(25.0);
  const std::string table = LayerTimeTable({"conv1"}, registry);
  EXPECT_NE(table.find("conv1"), std::string::npos);
  EXPECT_NE(table.find("75.0"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);

  // The CSV carries the per-iteration spread of a sweep's samples.
  ThreadSweep sweep;
  sweep.threads = {2};
  SweepRow fwd;
  fwd.layer = "conv1";
  fwd.phase = parallel::LayerPhase::kForward;
  fwd.by_threads[2].time.Add(75.0);
  SweepRow bwd = fwd;
  bwd.phase = parallel::LayerPhase::kBackward;
  bwd.by_threads[2].time = PhaseStats{};
  bwd.by_threads[2].time.Add(20.0);
  bwd.by_threads[2].time.Add(30.0);
  sweep.rows = {fwd, bwd};
  const std::string csv = LayerTimeCsv(sweep, 2);
  EXPECT_NE(
      csv.find("layer,phase,mean_us,min_us,max_us,stddev_us,p50_us,total_us,"
               "count,share"),
      std::string::npos);
  EXPECT_NE(csv.find("conv1,forward,75,75,75,0,75,75,1,0.75"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("conv1,backward,25,20,30,5,20,50,2,0.25"),
            std::string::npos)
      << csv;
  EXPECT_EQ(LayerTimeCsv(sweep, 4).find("conv1"), std::string::npos)
      << "a thread count the sweep did not run has no rows";
}

TEST(Profiler, ResetClears) {
  trace::MetricsRegistry registry;
  registry.GetHistogram("layer.x.forward.us").Observe(1.0);
  registry.Reset();
  const std::string table = LayerTimeTable({"x"}, registry);
  EXPECT_EQ(table.find("x               forward"), std::string::npos);
  EXPECT_NE(table.find("0.0"), std::string::npos);
}

}  // namespace
}  // namespace cgdnn::profile
