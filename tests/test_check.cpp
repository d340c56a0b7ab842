// cgdnn-check runtime verification: the write-set checker must (1) accept
// the disjoint partitions the coarse-grain schedule actually produces,
// (2) reject a deliberately overlapping partition naming the blob and both
// thread ids, (3) reject a merge that starts before every write phase ended
// (the missing-barrier case), and (4) stay silent across full
// forward/backward passes of both builtin models at 1/8/16 threads.
#include <gtest/gtest.h>

#include <string>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/common.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {
namespace {

using check::ScopedEnable;
using check::WriteSetChecker;

float buffer_a[64];
float buffer_b[64];

TEST(WriteSetCheckerTest, DisjointPartitionPasses) {
  WriteSetChecker chk("layer.forward", 2);
  chk.RecordWrite(0, buffer_a, "top.data", 0, 10);
  chk.RecordWrite(1, buffer_a, "top.data", 10, 20);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  EXPECT_NO_THROW(chk.Verify());
}

TEST(WriteSetCheckerTest, InjectedOverlapDetected) {
  WriteSetChecker chk("conv1.forward", 2);
  // Deliberately overlapping partition: thread 1's chunk starts two
  // elements before thread 0's ends.
  chk.RecordWrite(0, buffer_a, "top.data", 0, 12);
  chk.RecordWrite(1, buffer_a, "top.data", 10, 20);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  try {
    chk.Verify();
    FAIL() << "overlap not detected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv1.forward"), std::string::npos) << msg;
    EXPECT_NE(msg.find("top.data"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overlapping thread write sets"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("thread 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("thread 1"), std::string::npos) << msg;
  }
}

TEST(WriteSetCheckerTest, NestedOverlapDetected) {
  // A small interval fully inside an earlier, longer one from another
  // thread: exercises the max-end sweep (adjacent-pair comparison alone
  // would miss it because [30,40) sorts after [0,100) with a gap between
  // their begins).
  WriteSetChecker chk("pool1.backward", 3);
  chk.RecordWrite(0, buffer_a, "bottom.diff", 0, 100);
  chk.RecordWrite(0, buffer_a, "bottom.diff", 100, 110);
  chk.RecordWrite(1, buffer_a, "bottom.diff", 30, 40);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  chk.EndWritePhase(2);
  EXPECT_THROW(chk.Verify(), Error);
}

TEST(WriteSetCheckerTest, SameThreadRewritePasses) {
  // One thread revisiting its own range (e.g. accumulation over input
  // channels into the same output plane) is not a partition violation.
  WriteSetChecker chk("conv2.backward", 2);
  chk.RecordWrite(0, buffer_a, "bottom.diff", 0, 10);
  chk.RecordWrite(0, buffer_a, "bottom.diff", 5, 15);
  chk.RecordWrite(1, buffer_a, "bottom.diff", 20, 30);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  EXPECT_NO_THROW(chk.Verify());
}

TEST(WriteSetCheckerTest, DistinctBuffersDoNotInteract) {
  WriteSetChecker chk("ip1.backward", 2);
  chk.RecordWrite(0, buffer_a, "weight.diff", 0, 32);
  chk.RecordWrite(1, buffer_b, "bias.diff", 0, 32);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  EXPECT_NO_THROW(chk.Verify());
}

TEST(WriteSetCheckerTest, MergeBeforeBarrierDetected) {
  WriteSetChecker chk("ip2.backward", 2);
  chk.RecordWrite(0, buffer_a, "weight.diff", 0, 16);
  chk.RecordWrite(1, buffer_a, "weight.diff", 16, 32);
  chk.EndWritePhase(0);
  // Thread 0 reaches the merge while thread 1 has not ended its write
  // phase: the explicit barrier is missing.
  chk.BeginMerge(0);
  chk.EndWritePhase(1);
  try {
    chk.Verify();
    FAIL() << "missing barrier not detected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ip2.backward"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
  }
}

TEST(WriteSetCheckerTest, MergeAfterBarrierPasses) {
  WriteSetChecker chk("ip3.backward", 2);
  chk.EndWritePhase(0);
  chk.EndWritePhase(1);
  chk.BeginMerge(0);
  chk.BeginMerge(1);
  EXPECT_NO_THROW(chk.Verify());
}

// The region helper arms one checker per region, only while checking is
// enabled, and exposes it to the merge kernels as the current region.
TEST(WriteSetCheckerTest, RegionHelperGatesOnEnable) {
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = 2;
  parallel::Parallel::Scope scope(cfg);
  parallel::LayerPhaseScope phase("gated.region",
                                  parallel::LayerPhase::kForward);
  for (const bool enabled : {false, true}) {
    ScopedEnable armed(enabled);
    WriteSetChecker* seen[2] = {nullptr, nullptr};
    WriteSetChecker* current[2] = {nullptr, nullptr};
    parallel::ForEachChunk(2, [&](const parallel::Chunk& c) {
      seen[c.tid] = c.checker;
      // The merge kernels reach the checker through the process-wide
      // current-region pointer.
      current[c.tid] = WriteSetChecker::Current();
    });
    for (int tid = 0; tid < 2; ++tid) {
      EXPECT_EQ(seen[tid] != nullptr, enabled) << "tid " << tid;
      EXPECT_EQ(current[tid], seen[tid]) << "tid " << tid;
    }
    EXPECT_EQ(WriteSetChecker::Current(), nullptr);
  }
}

TEST(WriteSetCheckerTest, RegionHelperVerifiesAtRegionEnd) {
  ScopedEnable on(true);
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = 2;
  parallel::Parallel::Scope scope(cfg);
  parallel::LayerPhaseScope phase("injected.region",
                                  parallel::LayerPhase::kForward);
  // Overlapping declarations must surface when the region joins, without
  // any explicit Verify() call at the use site.
  EXPECT_THROW(parallel::ForEachChunk(2,
                                      [&](const parallel::Chunk& c) {
                                        const index_t lo = c.tid == 0 ? 0 : 8;
                                        c.Wrote(buffer_a, "top.data", lo,
                                                lo + 12);
                                      }),
               Error);
  EXPECT_EQ(WriteSetChecker::Current(), nullptr);
}

// Full-model sweep: both builtin networks must run forward/backward under
// the armed checker without a single partition or barrier violation.
class CheckedModels : public ::testing::TestWithParam<int> {};

void RunUnderChecker(const proto::NetParameter& param, int threads) {
  ScopedEnable on(true);
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = parallel::GradientMerge::kOrdered;
  parallel::Parallel::Scope scope(cfg);

  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  net.ClearParamDiffs();
  EXPECT_NO_THROW(net.ForwardBackward());
}

TEST_P(CheckedModels, LeNetRunsClean) {
  models::ModelOptions o;
  o.batch_size = 12;
  o.num_samples = 32;
  o.with_accuracy = false;
  RunUnderChecker(models::LeNet(o), GetParam());
}

TEST_P(CheckedModels, Cifar10QuickRunsClean) {
  models::ModelOptions o;
  o.batch_size = 6;
  o.num_samples = 32;
  o.with_accuracy = false;
  RunUnderChecker(models::Cifar10Quick(o), GetParam());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CheckedModels,
                         ::testing::Values(1, 8, 16), [](const auto& tpi) {
                           std::string name = "threads";
                           name += std::to_string(tpi.param);
                           return name;
                         });

}  // namespace
}  // namespace cgdnn
