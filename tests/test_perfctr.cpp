#include "cgdnn/perfctr/perfctr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "cgdnn/core/gemm_isa.hpp"
#include "cgdnn/parallel/instrument.hpp"
#include "cgdnn/perfctr/roofline.hpp"
#include "cgdnn/trace/counters.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::perfctr {
namespace {

// Restores the process-wide perfctr and trace state around each test so the
// order of test execution cannot leak an armed/forced configuration.
class PerfctrTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("CGDNN_PERFCTR");
    ForceUnavailableForTest(false);
    ResetForTest();
    trace::SetMetrics(false);
    trace::Tracer::Get().Stop();
    trace::Tracer::Get().Clear();
    trace::MetricsRegistry::Default().Reset();
  }
};

Sample MakeSample(std::uint64_t cycles, std::uint64_t instructions,
                  std::uint64_t enabled, std::uint64_t running) {
  Sample s;
  s.valid = true;
  s.time_enabled = enabled;
  s.time_running = running;
  s.present[static_cast<int>(Event::kCycles)] = true;
  s.value[static_cast<int>(Event::kCycles)] = cycles;
  s.present[static_cast<int>(Event::kInstructions)] = true;
  s.value[static_cast<int>(Event::kInstructions)] = instructions;
  return s;
}

// ----- pure counter math ---------------------------------------------------

TEST_F(PerfctrTest, WrapDeltaMonotonic) {
  EXPECT_EQ(WrapDelta(100, 350), 250u);
  EXPECT_EQ(WrapDelta(0, 0), 0u);
}

TEST_F(PerfctrTest, WrapDeltaSurvivesWraparound) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  // Counter wrapped past 2^64: prev near the top, cur restarted low.
  EXPECT_EQ(WrapDelta(max - 9, 15), 25u);
  EXPECT_EQ(WrapDelta(max, 0), 1u);
}

TEST_F(PerfctrTest, ScaleMultiplexedFullScheduleIsExact) {
  bool valid = false;
  EXPECT_DOUBLE_EQ(ScaleMultiplexed(1000, 500, 500, &valid), 1000.0);
  EXPECT_TRUE(valid);
}

TEST_F(PerfctrTest, ScaleMultiplexedExtrapolatesRotatedGroup) {
  bool valid = false;
  // Group on the PMU for only a quarter of the interval: estimate 4x.
  EXPECT_DOUBLE_EQ(ScaleMultiplexed(1000, 400, 100, &valid), 4000.0);
  EXPECT_TRUE(valid);
}

TEST_F(PerfctrTest, ScaleMultiplexedZeroIntervalIsExactZero) {
  bool valid = false;
  EXPECT_DOUBLE_EQ(ScaleMultiplexed(0, 0, 0, &valid), 0.0);
  EXPECT_TRUE(valid);
}

TEST_F(PerfctrTest, ScaleMultiplexedNeverScheduledIsInvalid) {
  bool valid = true;
  // enabled > 0 but running == 0: no basis for an estimate.
  EXPECT_DOUBLE_EQ(ScaleMultiplexed(123, 700, 0, &valid), 0.0);
  EXPECT_FALSE(valid);
}

TEST_F(PerfctrTest, ComputeDeltaScalesAndTracksPresence) {
  const Sample begin = MakeSample(1000, 3000, 1000, 1000);
  const Sample end = MakeSample(1400, 4000, 3000, 2000);  // enabled 2x running
  const Delta d = ComputeDelta(begin, end);
  ASSERT_TRUE(d.valid);
  EXPECT_DOUBLE_EQ(d.multiplex_scale, 2.0);
  EXPECT_TRUE(d.has(Event::kCycles));
  EXPECT_DOUBLE_EQ(d.get(Event::kCycles), 800.0);  // (1400-1000) * 2
  EXPECT_TRUE(d.has(Event::kInstructions));
  EXPECT_DOUBLE_EQ(d.get(Event::kInstructions), 2000.0);
  // Events the group never carried stay absent, not zero-present.
  EXPECT_FALSE(d.has(Event::kLLCRefs));
  EXPECT_FALSE(d.has(Event::kStalledCycles));
  EXPECT_DOUBLE_EQ(d.Ipc(), 2.5);
  EXPECT_LT(d.LlcMissRate(), 0.0);  // sentinel: refs/misses missing
  EXPECT_LT(d.StalledFrac(), 0.0);
}

TEST_F(PerfctrTest, ComputeDeltaHandlesCounterWraparound) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  Sample begin = MakeSample(max - 99, 0, 1000, 1000);
  Sample end = MakeSample(100, 500, 2000, 2000);
  const Delta d = ComputeDelta(begin, end);
  ASSERT_TRUE(d.valid);
  EXPECT_DOUBLE_EQ(d.get(Event::kCycles), 200.0);  // wrapped, not negative
}

TEST_F(PerfctrTest, ComputeDeltaRejectsInvalidSamples) {
  const Sample good = MakeSample(10, 10, 10, 10);
  Sample bad;  // valid == false
  EXPECT_FALSE(ComputeDelta(bad, good).valid);
  EXPECT_FALSE(ComputeDelta(good, bad).valid);
  // Group enabled over the interval but never scheduled: invalid estimate.
  const Sample never_ran_begin = MakeSample(5, 5, 0, 0);
  const Sample never_ran_end = MakeSample(5, 5, 1000, 0);
  EXPECT_FALSE(ComputeDelta(never_ran_begin, never_ran_end).valid);
}

TEST_F(PerfctrTest, DeltaAccumulateSumsAndIntersectsPresence) {
  Delta a = ComputeDelta(MakeSample(0, 0, 100, 100),
                         MakeSample(100, 400, 200, 200));
  Delta b = ComputeDelta(MakeSample(0, 0, 100, 100),
                         MakeSample(300, 200, 300, 200));  // scale 2x
  a.Accumulate(b);
  ASSERT_TRUE(a.valid);
  EXPECT_DOUBLE_EQ(a.get(Event::kCycles), 100.0 + 600.0);
  EXPECT_DOUBLE_EQ(a.get(Event::kInstructions), 400.0 + 400.0);
  EXPECT_DOUBLE_EQ(a.multiplex_scale, 2.0);  // worst scale wins

  // Accumulating an invalid delta changes nothing; accumulating into an
  // invalid delta adopts the other side.
  Delta invalid;
  a.Accumulate(invalid);
  EXPECT_DOUBLE_EQ(a.get(Event::kCycles), 700.0);
  Delta fresh;
  fresh.Accumulate(a);
  ASSERT_TRUE(fresh.valid);
  EXPECT_DOUBLE_EQ(fresh.get(Event::kCycles), 700.0);
}

// ----- fallback discipline -------------------------------------------------

TEST_F(PerfctrTest, EnvVariableDisablesCounters) {
  setenv("CGDNN_PERFCTR", "off", 1);
  ResetForTest();
  EXPECT_FALSE(Supported());
  EXPECT_NE(UnavailableReason().find("CGDNN_PERFCTR"), std::string::npos);
  SetActive(true);  // arming must not stick on an unsupported host
  EXPECT_FALSE(CollectionActive());
  EXPECT_FALSE(ReadThreadCounters().valid);
}

TEST_F(PerfctrTest, SimulatedOpenFailureFallsBackCleanly) {
  ForceUnavailableForTest(true);
  ResetForTest();
  EXPECT_FALSE(Supported());
  EXPECT_FALSE(UnavailableReason().empty());
  SetActive(true);
  EXPECT_FALSE(CollectionActive());
  EXPECT_FALSE(ReadThreadCounters().valid);
}

TEST_F(PerfctrTest, MetricsOmitCounterFieldsWhenUnavailable) {
  ForceUnavailableForTest(true);
  ResetForTest();
  SetActive(true);
  trace::SetMetrics(true);
  auto& registry = trace::MetricsRegistry::Default();
  registry.Reset();
  {
    parallel::LayerPhaseScope phase("fbtest.forward",
                                    parallel::LayerPhase::kForward);
    EXPECT_TRUE(phase.active());
    EXPECT_FALSE(phase.counters_active());
    phase.BeginTeam(2);
    phase.AddThreadBusyNs(0, 1000);
    phase.AddThreadBusyNs(1, 3000);
  }
  // Timing-derived metrics still land ...
  EXPECT_NE(registry.FindHistogram("layer.fbtest.forward.us"), nullptr);
  EXPECT_NE(registry.FindGauge("layer.fbtest.forward.imbalance_last"),
            nullptr);
  // ... but counter-derived keys are absent, not zeroed.
  EXPECT_EQ(registry.FindCounter("layer.fbtest.forward.cycles"), nullptr);
  EXPECT_EQ(registry.FindGauge("layer.fbtest.forward.ipc_last"), nullptr);
}

TEST_F(PerfctrTest, TraceOmitsCounterArgsWhenUnavailable) {
  ForceUnavailableForTest(true);
  ResetForTest();
  SetActive(true);
  trace::Tracer::Get().Clear();
  trace::Tracer::Get().Start();
  {
    parallel::LayerPhaseScope phase("fbtrace.forward",
                                    parallel::LayerPhase::kForward);
    phase.BeginTeam(1);
    parallel::ThreadRegionScope scope(phase, nullptr, 0);
  }
  trace::Tracer::Get().Stop();
  std::ostringstream out;
  trace::Tracer::Get().WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("fbtrace.forward"), std::string::npos);
  // Span events must not carry counter args; only the leading provenance
  // metadata event may have an args object.
  const auto meta_end = json.find("}}");
  ASSERT_NE(meta_end, std::string::npos);
  EXPECT_EQ(json.find("\"args\"", meta_end), std::string::npos);
  EXPECT_EQ(json.find("cycles"), std::string::npos);
}

TEST_F(PerfctrTest, RecordCounterDeltaMetricsIgnoresInvalidDelta) {
  auto& registry = trace::MetricsRegistry::Default();
  registry.Reset();
  trace::RecordCounterDeltaMetrics("layer.x.forward", Delta{}, registry);
  EXPECT_EQ(registry.FindCounter("layer.x.forward.cycles"), nullptr);
}

TEST_F(PerfctrTest, RecordCounterDeltaMetricsWritesPresentEventsOnly) {
  auto& registry = trace::MetricsRegistry::Default();
  registry.Reset();
  const Delta d = ComputeDelta(MakeSample(0, 0, 100, 100),
                               MakeSample(500, 1000, 200, 200));
  trace::RecordCounterDeltaMetrics("layer.x.forward", d, registry);
  const auto* cycles = registry.FindCounter("layer.x.forward.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), 500);
  const auto* ipc = registry.FindGauge("layer.x.forward.ipc_last");
  ASSERT_NE(ipc, nullptr);
  EXPECT_DOUBLE_EQ(ipc->value(), 2.0);
  // LLC events were absent from the delta: no keys, not zeroes.
  EXPECT_EQ(registry.FindCounter("layer.x.forward.llc_misses"), nullptr);
  EXPECT_EQ(registry.FindGauge("layer.x.forward.llc_miss_rate_last"),
            nullptr);
}

// ----- imbalance attribution ----------------------------------------------

TEST_F(PerfctrTest, LayerPhaseAttributesStraggler) {
  trace::SetMetrics(true);
  parallel::LayerPhaseScope rs("skew.forward", parallel::LayerPhase::kForward);
  ASSERT_TRUE(rs.active());
  rs.BeginTeam(4);
  rs.AddThreadBusyNs(0, 100);
  rs.AddThreadBusyNs(1, 100);
  rs.AddThreadBusyNs(2, 100);
  rs.AddThreadBusyNs(3, 400);  // the straggler
  // mean = 175ns, max = 400ns
  EXPECT_NEAR(rs.ImbalanceRatio(), 400.0 / 175.0, 1e-12);
  EXPECT_EQ(rs.StragglerTid(), 3);
}

TEST_F(PerfctrTest, LayerPhaseBalancedTeamReportsUnity) {
  trace::SetMetrics(true);
  parallel::LayerPhaseScope rs("flat.forward", parallel::LayerPhase::kForward);
  rs.BeginTeam(3);
  for (int tid = 0; tid < 3; ++tid) rs.AddThreadBusyNs(tid, 500);
  EXPECT_DOUBLE_EQ(rs.ImbalanceRatio(), 1.0);
}

TEST_F(PerfctrTest, LayerPhaseIgnoresIdleThreads) {
  trace::SetMetrics(true);
  parallel::LayerPhaseScope rs("partial.forward",
                               parallel::LayerPhase::kForward);
  rs.BeginTeam(4);
  // Only two threads did work; idle slots must not drag the mean down.
  rs.AddThreadBusyNs(0, 300);
  rs.AddThreadBusyNs(2, 100);
  EXPECT_NEAR(rs.ImbalanceRatio(), 300.0 / 200.0, 1e-12);
  EXPECT_EQ(rs.StragglerTid(), 0);
}

// ----- roofline ------------------------------------------------------------

TEST_F(PerfctrTest, PlaceOnRooflineMemoryBoundPoint) {
  MachinePeak peak;
  peak.gflops = 100.0;
  peak.mem_gbps = 10.0;  // ridge at 10 FLOP/B
  // ai = 1 FLOP/B, well left of the ridge: bandwidth roof applies.
  const auto p = PlaceOnRoofline(/*flops=*/1e9, /*bytes=*/1e9,
                                 /*time_us=*/1e6, peak);
  ASSERT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.ai, 1.0);
  EXPECT_DOUBLE_EQ(p.achieved_gflops, 1.0);
  EXPECT_DOUBLE_EQ(p.attainable_gflops, 10.0);  // ai * bw < peak
  EXPECT_TRUE(p.memory_limited);
  EXPECT_DOUBLE_EQ(p.roof_efficiency, 0.1);
}

TEST_F(PerfctrTest, PlaceOnRooflineComputeBoundPoint) {
  MachinePeak peak;
  peak.gflops = 100.0;
  peak.mem_gbps = 10.0;
  // ai = 100 FLOP/B, right of the ridge: compute roof applies.
  const auto p = PlaceOnRoofline(1e9, 1e7, /*time_us=*/2e4, peak);
  ASSERT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.ai, 100.0);
  EXPECT_DOUBLE_EQ(p.achieved_gflops, 50.0);
  EXPECT_DOUBLE_EQ(p.attainable_gflops, 100.0);
  EXPECT_FALSE(p.memory_limited);
  EXPECT_DOUBLE_EQ(p.roof_efficiency, 0.5);
}

TEST_F(PerfctrTest, PlaceOnRooflineRejectsDegenerateInputs) {
  MachinePeak peak;
  peak.gflops = 100.0;
  peak.mem_gbps = 10.0;
  EXPECT_FALSE(PlaceOnRoofline(0, 1e6, 100, peak).valid);   // no flops
  EXPECT_FALSE(PlaceOnRoofline(1e6, 0, 100, peak).valid);   // no bytes
  EXPECT_FALSE(PlaceOnRoofline(1e6, 1e6, 0, peak).valid);   // no time
  EXPECT_FALSE(PlaceOnRoofline(1e6, 1e6, 100, MachinePeak{}).valid);
}

TEST_F(PerfctrTest, ClassifyBoundBranches) {
  MachinePeak peak;
  peak.gflops = 100.0;
  peak.mem_gbps = 10.0;
  const auto mem = PlaceOnRoofline(1e9, 1e9, 1e6, peak);
  const auto cpu = PlaceOnRoofline(1e9, 1e7, 2e4, peak);
  // Straggler attribution wins over the roofline when measured.
  EXPECT_EQ(ClassifyBound(cpu, kImbalanceBoundThreshold + 0.1),
            BoundClass::kImbalance);
  // Below the threshold (or unmeasured, <= 0) the roof decides.
  EXPECT_EQ(ClassifyBound(mem, 1.05), BoundClass::kMemory);
  EXPECT_EQ(ClassifyBound(cpu, 0.0), BoundClass::kCompute);
  EXPECT_EQ(ClassifyBound(RooflinePoint{}, 2.0), BoundClass::kUnknown);
}

TEST_F(PerfctrTest, BoundClassNamesAreStable) {
  EXPECT_STREQ(BoundClassName(BoundClass::kCompute), "compute");
  EXPECT_STREQ(BoundClassName(BoundClass::kMemory), "memory");
  EXPECT_STREQ(BoundClassName(BoundClass::kImbalance), "imbalance");
  EXPECT_STREQ(BoundClassName(BoundClass::kUnknown), "unknown");
}

TEST_F(PerfctrTest, MachinePeakProbeProducesPositiveCeilings) {
  // Tiny probe sizes: this checks plumbing, not peak quality.
  const MachinePeak peak =
      MeasureMachinePeak(/*threads=*/1, /*gemm_dim=*/48,
                         /*triad_elems=*/1 << 14, /*reps=*/1);
  EXPECT_EQ(peak.threads, 1);
  EXPECT_GT(peak.gflops, 0.0);
  EXPECT_GT(peak.mem_gbps, 0.0);
  EXPECT_GT(peak.RidgeAi(), 0.0);
  // No reference to judge it against.
  EXPECT_FALSE(peak.probe_rerun);
  EXPECT_FALSE(peak.probe_suspect);
}

TEST_F(PerfctrTest, ProbeBelowItsReferenceIsRerunAndFlagged) {
  // No host reaches a 1e12 GFLOP/s reference, so the 2-thread reading is
  // low, re-run once, and still low.
  MachinePeak unreachable;
  unreachable.threads = 1;
  unreachable.gflops = 1e12;
  unreachable.mem_gbps = 1e12;
  const MachinePeak low =
      MeasureMachinePeak(/*threads=*/2, /*gemm_dim=*/48,
                         /*triad_elems=*/1 << 14, /*reps=*/1, &unreachable);
  EXPECT_EQ(low.threads, 2);
  EXPECT_GT(low.gflops, 0.0);
  EXPECT_GT(low.mem_gbps, 0.0);
  EXPECT_TRUE(low.probe_rerun);
  EXPECT_TRUE(low.probe_suspect);

  // Any real reading beats an all-zero reference: one pass, no verdict.
  MachinePeak floor;
  floor.threads = 1;
  const MachinePeak fine =
      MeasureMachinePeak(/*threads=*/2, /*gemm_dim=*/48,
                         /*triad_elems=*/1 << 14, /*reps=*/1, &floor);
  EXPECT_FALSE(fine.probe_rerun);
  EXPECT_FALSE(fine.probe_suspect);

  // Without a reference nothing is judged.
  const MachinePeak alone =
      MeasureMachinePeak(/*threads=*/2, /*gemm_dim=*/48,
                         /*triad_elems=*/1 << 14, /*reps=*/1);
  EXPECT_FALSE(alone.probe_rerun);
  EXPECT_FALSE(alone.probe_suspect);
}

TEST_F(PerfctrTest, TheoreticalPeakFollowsIsaAndClock) {
  const double ghz = CpuBaseClockGhz();
  EXPECT_GE(ghz, 0.0);
  const MachinePeak peak =
      MeasureMachinePeak(/*threads=*/1, /*gemm_dim=*/48,
                         /*triad_elems=*/1 << 14, /*reps=*/1);
  // Omitted (0) exactly when cpuid leaf 0x16 reports no clock.
  EXPECT_DOUBLE_EQ(peak.theoretical_gflops,
                   GemmIsaFlopsPerCycle(ActiveGemmIsa()) * ghz);
}

// ----- live counters (only on hosts that deliver them) ---------------------

TEST_F(PerfctrTest, LiveCounterSetSmokeWhenSupported) {
  ResetForTest();
  if (!Supported()) {
    GTEST_SKIP() << "hardware counters unavailable: " << UnavailableReason();
  }
  CounterSet set;
  ASSERT_TRUE(set.Open());
  const Sample begin = set.Read();
  ASSERT_TRUE(begin.valid);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const Sample end = set.Read();
  ASSERT_TRUE(end.valid);
  const Delta d = ComputeDelta(begin, end);
  ASSERT_TRUE(d.valid);
  EXPECT_TRUE(d.has(Event::kCycles));
  EXPECT_GT(d.get(Event::kCycles), 0.0);
}

}  // namespace
}  // namespace cgdnn::perfctr
