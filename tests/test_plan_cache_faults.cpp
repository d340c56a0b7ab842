// Fault injection against the on-disk plan cache (docs/robustness.md).
// A serving process that crashes mid-StorePlan, a flaky disk, or a hand
// edit can leave .cgdnn_plan_cache entries torn. Every such corruption
// must degrade to a cache miss with the bad entry discarded (warned, not
// silent) so the next start re-plans instead of re-hitting the same parse
// failure forever — and a valid entry for a *different* key that collides
// into the same CRC filename must survive untouched.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "cgdnn/data/io.hpp"
#include "cgdnn/plan/plan_cache.hpp"

namespace cgdnn {
namespace {

plan::ExecutionPlan FaultPlanFixture() {
  plan::ExecutionPlan p;
  p.net_signature = "lenet|test|1|data:Data:4x1x28x28";
  p.batch = 4;
  p.threads = 2;
  p.git_sha = "deadbee";
  p.gemm_isa = "baseline";
  p.gflops = 12.5;
  p.mem_gbps = 6.25;
  plan::ConvDecision d;
  d.layer = "conv1";
  d.forward_direct = false;
  d.im2col_us = 4.5;
  d.direct_us = 6.0;
  p.conv_decisions.push_back(d);
  plan::FusionGroup g;
  g.producer = "ip1";
  g.consumers = {"relu1"};
  p.fusion_groups.push_back(g);
  return p;
}

class PlanCacheFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest -j runs the cases of this
    // fixture concurrently, and a shared directory races on rename.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "cgdnn_plan_cache_faults_" + info->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    plan_ = FaultPlanFixture();
    key_ = plan::PlanCacheKey{plan_.net_signature, plan_.batch,
                              plan_.threads, plan_.git_sha, plan_.gemm_isa};
    path_ = plan::PlanCachePath(key_, dir_);
    plan::StorePlan(plan_, dir_);
    ASSERT_TRUE(std::filesystem::exists(path_));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
  plan::ExecutionPlan plan_;
  plan::PlanCacheKey key_;
};

TEST_F(PlanCacheFaults, TruncationAtEveryByteIsDiscardedAndRecoverable) {
  const std::string full = data::ReadFileBytes(path_);
  ASSERT_GT(full.size(), 2u);
  // Every strict prefix of a valid entry is what a crashed non-atomic
  // writer (or torn disk sector) could leave behind. Byte granularity is
  // the JSON analogue of the checkpoint test's section boundaries: it
  // covers mid-token, mid-string, and mid-number cuts.
  for (std::size_t len = 0; len < full.size(); ++len) {
    data::WriteFileAtomic(path_, full.substr(0, len));
    plan::ExecutionPlan loaded;
    if (plan::LoadCachedPlan(key_, dir_, &loaded)) {
      // Only a cut that removed nothing but trailing whitespace may still
      // hit — and then it must be the complete plan, never a torn one.
      EXPECT_EQ(loaded.ToJson(), plan_.ToJson())
          << "cut at " << len << " loaded a partial plan";
      continue;
    }
    EXPECT_FALSE(std::filesystem::exists(path_))
        << "corrupt entry (cut at " << len << ") was not discarded";
    // The slot must be immediately reusable: re-plan + store + hit.
    plan::StorePlan(plan_, dir_);
    ASSERT_TRUE(plan::LoadCachedPlan(key_, dir_, &loaded))
        << "cache unusable after discarding cut at " << len;
  }
}

TEST_F(PlanCacheFaults, BitFlipsNeverLoadAWrongPlan) {
  const std::string full = data::ReadFileBytes(path_);
  const std::string want = plan_.ToJson();
  // Flip one bit in every region of the file (stride keeps runtime low;
  // offsets cover structure chars, keys, strings, and numbers).
  for (std::size_t at = 0; at < full.size(); at += 7) {
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
    data::WriteFileAtomic(path_, bytes);
    plan::ExecutionPlan loaded;
    if (plan::LoadCachedPlan(key_, dir_, &loaded)) {
      // A flip that keeps the JSON valid AND all four key fields intact
      // (inside a float, or a field name the parser then skips) is
      // allowed to hit — but what loaded must be a self-consistent plan
      // (key-verified, round-trippable), never a torn one.
      EXPECT_EQ(loaded.net_signature, key_.net_signature);
      EXPECT_EQ(loaded.batch, key_.batch);
      EXPECT_EQ(loaded.threads, key_.threads);
      EXPECT_EQ(loaded.git_sha, key_.git_sha);
      plan::ExecutionPlan round;
      EXPECT_TRUE(plan::ExecutionPlan::FromJson(loaded.ToJson(), &round))
          << "loaded plan does not round-trip (flip at " << at << ")";
    } else if (!std::filesystem::exists(path_)) {
      // Unparseable: must have been discarded; slot must recover.
      plan::StorePlan(plan_, dir_);
      ASSERT_TRUE(plan::LoadCachedPlan(key_, dir_, &loaded));
      EXPECT_EQ(loaded.ToJson(), want);
    }
    data::WriteFileAtomic(path_, full);  // restore for the next flip
  }
}

TEST_F(PlanCacheFaults, KeyMismatchIsAMissButTheFileSurvives) {
  // A CRC name collision means the file on disk is a valid plan for some
  // OTHER configuration. Deleting it would let two configurations evict
  // each other forever; a mismatch must stay a silent miss.
  plan::PlanCacheKey other = key_;
  other.git_sha = "0000000";
  data::WriteFileAtomic(plan::PlanCachePath(other, dir_),
                        plan_.ToJson());  // valid JSON, wrong git_sha
  plan::ExecutionPlan loaded;
  EXPECT_FALSE(plan::LoadCachedPlan(other, dir_, &loaded));
  EXPECT_TRUE(std::filesystem::exists(plan::PlanCachePath(other, dir_)));
}

TEST_F(PlanCacheFaults, EmptyAndGarbageEntriesAreDiscardedOnce) {
  for (const char* junk :
       {"", "\x01\x02\x7f", "not json at all", "{\"net_signature\":",
        "[1,2,3]", "{}"}) {
    data::WriteFileAtomic(path_, junk);
    plan::ExecutionPlan loaded;
    EXPECT_FALSE(plan::LoadCachedPlan(key_, dir_, &loaded));
    EXPECT_FALSE(std::filesystem::exists(path_))
        << "junk entry survived: '" << junk << "'";
  }
}

TEST_F(PlanCacheFaults, MissingFileIsASilentMissWithoutSideEffects) {
  std::filesystem::remove_all(dir_);
  plan::ExecutionPlan loaded;
  EXPECT_FALSE(plan::LoadCachedPlan(key_, dir_, &loaded));
  EXPECT_FALSE(std::filesystem::exists(dir_));  // miss must not mkdir
}

}  // namespace
}  // namespace cgdnn
