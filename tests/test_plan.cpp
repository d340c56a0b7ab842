// Planner unit tests: direct-conv bit-identity with the im2col-GEMM path,
// the analytic cost model, the interval-coloring arena allocator, and the
// on-disk plan cache (round-trip, git_sha/thread invalidation, warm-hit
// speedup).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/direct_conv.hpp"
#include "cgdnn/blas/im2col.hpp"
#include "cgdnn/core/gemm_isa.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/data/io.hpp"
#include "cgdnn/layers/conv_layer.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/plan/arena_plan.hpp"
#include "cgdnn/plan/cost_model.hpp"
#include "cgdnn/plan/layer_cost.hpp"
#include "cgdnn/plan/json_lite.hpp"
#include "cgdnn/plan/plan_cache.hpp"
#include "cgdnn/plan/planner.hpp"

namespace cgdnn {
namespace {

// ---- direct conv vs materialized im2col + GEMM -----------------------------

struct ConvCase {
  blas::ConvGeom g;
  index_t num_output;
};

ConvCase MakeCase(index_t c, index_t hw, index_t k, index_t pad,
                  index_t stride, index_t num_output) {
  blas::ConvGeom g;
  g.channels = c;
  g.height = g.width = hw;
  g.kernel_h = g.kernel_w = k;
  g.pad_h = g.pad_w = pad;
  g.stride_h = g.stride_w = stride;
  g.out_h = blas::ConvOutSize(hw, k, pad, stride, 1);
  g.out_w = g.out_h;
  return {g, num_output};
}

// Shapes straddling the packed/small-path boundary, both evaluation nets'
// convs, a 1x1, strided and padded variants.
std::vector<ConvCase> DirectConvCases() {
  return {
      MakeCase(1, 28, 5, 0, 1, 20),   // lenet conv1
      MakeCase(20, 12, 5, 0, 1, 50),  // lenet conv2
      MakeCase(3, 32, 5, 2, 1, 32),   // cifar conv1 (small channels, pad)
      MakeCase(32, 16, 5, 2, 1, 32),  // cifar conv2
      MakeCase(32, 8, 5, 2, 1, 64),   // cifar conv3
      MakeCase(8, 14, 1, 0, 1, 16),   // 1x1 conv
      MakeCase(4, 9, 3, 1, 2, 6),     // strided, small path
      MakeCase(2, 5, 3, 0, 1, 3),     // tiny, small path
  };
}

template <typename Dtype>
void FillPattern(Dtype* p, index_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) p[i] = static_cast<Dtype>(dist(rng));
}

template <typename Dtype>
void ExpectBitEqual(const std::vector<Dtype>& a, const std::vector<Dtype>& b,
                    const char* what, index_t case_idx) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Dtype)))
      << what << " differs from im2col+GEMM reference, case " << case_idx;
}

template <typename Dtype>
void RunDirectConvForwardCase(const ConvCase& cc, index_t case_idx) {
  const auto& g = cc.g;
  const index_t m = cc.num_output, n = g.out_spatial(), k = g.kernel_dim();
  std::vector<Dtype> image(static_cast<std::size_t>(g.bottom_dim()));
  std::vector<Dtype> weights(static_cast<std::size_t>(m * k));
  FillPattern(image.data(), g.bottom_dim(), 7 + static_cast<unsigned>(case_idx));
  FillPattern(weights.data(), m * k, 31 + static_cast<unsigned>(case_idx));

  std::vector<Dtype> col(static_cast<std::size_t>(k * n));
  std::vector<Dtype> ref(static_cast<std::size_t>(m * n), Dtype(42));
  blas::im2col(image.data(), g.channels, g.height, g.width, g.kernel_h,
               g.kernel_w, g.pad_h, g.pad_w, g.stride_h, g.stride_w,
               index_t{1}, index_t{1}, col.data());
  blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, m, n, k, Dtype(1),
             weights.data(), col.data(), Dtype(0), ref.data());

  std::vector<Dtype> got(static_cast<std::size_t>(m * n), Dtype(-42));
  blas::DirectConvForward(g, m, weights.data(), image.data(), got.data());
  ExpectBitEqual(ref, got, "direct forward", case_idx);
}

template <typename Dtype>
void RunDirectConvBackwardWeightsCase(const ConvCase& cc, index_t case_idx) {
  const auto& g = cc.g;
  const index_t m = cc.num_output, n = g.kernel_dim(), k = g.out_spatial();
  std::vector<Dtype> image(static_cast<std::size_t>(g.bottom_dim()));
  std::vector<Dtype> top_diff(static_cast<std::size_t>(m * k));
  FillPattern(image.data(), g.bottom_dim(), 3 + static_cast<unsigned>(case_idx));
  FillPattern(top_diff.data(), m * k, 11 + static_cast<unsigned>(case_idx));
  // Nonzero starting gradient: beta = 1 accumulation must match too.
  std::vector<Dtype> ref(static_cast<std::size_t>(m * n));
  FillPattern(ref.data(), m * n, 17);
  std::vector<Dtype> got = ref;

  std::vector<Dtype> col(static_cast<std::size_t>(n * k));
  blas::im2col(image.data(), g.channels, g.height, g.width, g.kernel_h,
               g.kernel_w, g.pad_h, g.pad_w, g.stride_h, g.stride_w,
               index_t{1}, index_t{1}, col.data());
  blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, m, n, k, Dtype(1),
             top_diff.data(), col.data(), Dtype(1), ref.data());

  blas::DirectConvBackwardWeights(g, m, top_diff.data(), image.data(),
                                  got.data());
  ExpectBitEqual(ref, got, "direct backward-weights", case_idx);
}

TEST(DirectConv, ForwardBitIdenticalToIm2colGemmFloat) {
  const auto cases = DirectConvCases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    RunDirectConvForwardCase<float>(cases[i], static_cast<index_t>(i));
  }
}

TEST(DirectConv, ForwardBitIdenticalToIm2colGemmDouble) {
  const auto cases = DirectConvCases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    RunDirectConvForwardCase<double>(cases[i], static_cast<index_t>(i));
  }
}

TEST(DirectConv, BackwardWeightsBitIdenticalToIm2colGemmFloat) {
  const auto cases = DirectConvCases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    RunDirectConvBackwardWeightsCase<float>(cases[i],
                                            static_cast<index_t>(i));
  }
}

TEST(DirectConv, BackwardWeightsBitIdenticalToIm2colGemmDouble) {
  const auto cases = DirectConvCases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    RunDirectConvBackwardWeightsCase<double>(cases[i],
                                             static_cast<index_t>(i));
  }
}

TEST(DirectConv, SupportPredicate) {
  const auto g = MakeCase(3, 32, 5, 2, 1, 32).g;
  EXPECT_TRUE(blas::DirectConvSupported(g, 1, 1));
  EXPECT_FALSE(blas::DirectConvSupported(g, 2, 1));  // grouped
  EXPECT_FALSE(blas::DirectConvSupported(g, 1, 2));  // dilated
}

// ---- analytic + measured cost model ----------------------------------------

TEST(CostModel, ForwardFlopsFormula) {
  const auto cc = MakeCase(20, 12, 5, 0, 1, 50);
  const double flops = plan::ConvForwardFlops(cc.g, cc.num_output);
  EXPECT_DOUBLE_EQ(flops, 2.0 * 50 * (20 * 5 * 5) * (8 * 8));
}

TEST(CostModel, AnalyticCostsArePositiveAndColTrafficMatters) {
  perfctr::MachinePeak peak;
  peak.threads = 1;
  peak.gflops = 50;
  peak.mem_gbps = 10;
  const auto cc = MakeCase(3, 32, 5, 2, 1, 32);
  const double im2col =
      plan::AnalyticConvForwardUs(cc.g, cc.num_output, false, 4, peak);
  const double direct =
      plan::AnalyticConvForwardUs(cc.g, cc.num_output, true, 4, peak);
  EXPECT_GT(im2col, 0);
  EXPECT_GT(direct, 0);
  // On a strongly bandwidth-limited machine model, skipping the
  // materialized col write+read must make direct cheaper.
  peak.gflops = 1000;
  peak.mem_gbps = 1;
  EXPECT_LT(
      plan::AnalyticConvForwardUs(cc.g, cc.num_output, true, 4, peak),
      plan::AnalyticConvForwardUs(cc.g, cc.num_output, false, 4, peak));
}

TEST(CostModel, MeasuredRefinementDrivesTheDecision) {
  perfctr::MachinePeak peak;
  peak.threads = 1;
  peak.gflops = 20;
  peak.mem_gbps = 8;
  const auto cc = MakeCase(20, 12, 5, 0, 1, 50);
  plan::ConvCost cost;
  const bool direct = plan::ChooseDirectForward<float>(
      cc.g, cc.num_output, peak, /*measure=*/true, &cost);
  ASSERT_GE(cost.measured_im2col_us, 0);
  ASSERT_GE(cost.measured_direct_us, 0);
  EXPECT_EQ(direct, cost.measured_direct_us < cost.measured_im2col_us);
}

// ---- per-layer cost descriptor ---------------------------------------------

std::vector<plan::LayerCost> LeNetCosts(index_t batch) {
  models::ModelOptions o;
  o.batch_size = batch;
  o.num_samples = 32;
  o.with_accuracy = false;
  SeedGlobalRng(1);
  data::ClearDatasetCache();
  const Net<float> net(models::LeNet(o), Phase::kTrain);
  return plan::NetLayerCosts(net);
}

const plan::LayerCost& CostOf(const std::vector<plan::LayerCost>& costs,
                              const std::string& name) {
  for (const auto& c : costs) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "no cost descriptor for " << name;
  return costs.front();
}

TEST(CostModel, ConvDescriptorIsPlannerFlopsTimesBatch) {
  constexpr index_t kBatch = 8;
  models::ModelOptions o;
  o.batch_size = kBatch;
  o.num_samples = 32;
  o.with_accuracy = false;
  SeedGlobalRng(1);
  data::ClearDatasetCache();
  const Net<float> net(models::LeNet(o), Phase::kTrain);
  const auto costs = plan::NetLayerCosts(net);
  ASSERT_EQ(costs.size(), net.layers().size());
  int convs = 0;
  for (std::size_t li = 0; li < costs.size(); ++li) {
    const auto* conv =
        dynamic_cast<const ConvolutionLayer<float>*>(net.layers()[li].get());
    if (conv == nullptr) continue;
    ++convs;
    EXPECT_DOUBLE_EQ(
        costs[li].forward.flops,
        plan::ConvForwardFlops(conv->geom(), conv->num_output()) * kBatch)
        << costs[li].name;
    EXPECT_DOUBLE_EQ(costs[li].forward.bytes,
                     plan::ConvForwardBytes(conv->geom(), conv->num_output(),
                                            sizeof(float), kBatch))
        << costs[li].name;
  }
  EXPECT_EQ(convs, 2);
}

TEST(CostModel, BackwardCountsOnlyTheGradientsTheNetNeeds) {
  const auto costs = LeNetCosts(8);
  // conv1 reads the data layer, which needs no gradient: its backward is
  // the weight gradient alone, one forward-sized product.
  const auto& conv1 = CostOf(costs, "conv1");
  EXPECT_DOUBLE_EQ(conv1.backward.flops, conv1.forward.flops);
  // conv2 also propagates to pool1: weight + bottom gradient.
  const auto& conv2 = CostOf(costs, "conv2");
  EXPECT_DOUBLE_EQ(conv2.backward.flops, 2 * conv2.forward.flops);
}

TEST(CostModel, InnerProductWeightBytesDoNotScaleWithBatch) {
  const auto small = LeNetCosts(8);
  const auto big = LeNetCosts(16);
  // bytes(batch) = weights + batch * per-sample traffic, so doubling the
  // batch doubles everything except the weights (read once per GEMM).
  const double weight_bytes = (800.0 * 500 + 500) * sizeof(float);
  const double delta = 2 * CostOf(small, "ip1").forward.bytes -
                       CostOf(big, "ip1").forward.bytes;
  EXPECT_DOUBLE_EQ(delta, weight_bytes);
  EXPECT_DOUBLE_EQ(CostOf(big, "ip1").forward.flops,
                   2 * CostOf(small, "ip1").forward.flops);
}

// ---- interval-coloring arena allocator -------------------------------------

// Reference simulation of the timeline: every live interval stamps its id
// over its byte range each step; preserved means the stamp survives to the
// end. Used to cross-check ComputePreserved on adversarial inputs.
std::vector<bool> SimulatePreserved(
    const std::vector<plan::LifetimeInterval>& ivs) {
  index_t total = 0, tmax = 0;
  for (const auto& iv : ivs) {
    total = std::max(total, iv.offset + iv.bytes);
    tmax = std::max(tmax, iv.end);
  }
  std::vector<int> mem(static_cast<std::size_t>(total), -1);
  for (index_t t = 0; t <= tmax; ++t) {
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      if (ivs[i].start <= t && t <= ivs[i].end) {
        std::fill(mem.begin() + ivs[i].offset,
                  mem.begin() + ivs[i].offset + ivs[i].bytes,
                  static_cast<int>(i));
      }
    }
  }
  std::vector<bool> preserved(ivs.size());
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    preserved[i] = std::all_of(
        mem.begin() + ivs[i].offset,
        mem.begin() + ivs[i].offset + ivs[i].bytes,
        [&](int id) { return id == static_cast<int>(i); });
  }
  return preserved;
}

TEST(ArenaPlan, AdversarialRandomLifetimesAreValidAndAligned) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<index_t> start_d(0, 39);
  std::uniform_int_distribution<index_t> len_d(0, 12);
  std::uniform_int_distribution<index_t> bytes_d(1, 9999);
  std::vector<plan::LifetimeInterval> ivs;
  for (int i = 0; i < 64; ++i) {
    plan::LifetimeInterval iv;
    iv.name = "iv" + std::to_string(i);
    iv.start = start_d(rng);
    iv.end = iv.start + len_d(rng);
    iv.bytes = bytes_d(rng);
    ivs.push_back(iv);
  }
  const auto layout = plan::PlanArenaOffsets(ivs);
  std::string why;
  EXPECT_TRUE(plan::ValidateLayout(layout.intervals, &why)) << why;
  EXPECT_LE(layout.total_bytes, layout.per_plane_bytes + 64 * 64);
  for (const auto& iv : layout.intervals) {
    EXPECT_EQ(iv.offset % 64, 0) << iv.name;
  }
  // Preserved flags must agree with a byte-level timeline simulation.
  const auto sim = SimulatePreserved(layout.intervals);
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(layout.intervals[i].preserved, sim[i])
        << layout.intervals[i].name;
  }
}

TEST(ArenaPlan, DisjointLifetimesShareOneSlot) {
  std::vector<plan::LifetimeInterval> ivs(3);
  for (int i = 0; i < 3; ++i) {
    ivs[i].name = "chain" + std::to_string(i);
    ivs[i].start = 2 * i;
    ivs[i].end = 2 * i + 1;
    ivs[i].bytes = 1000;
  }
  const auto layout = plan::PlanArenaOffsets(ivs);
  EXPECT_EQ(layout.intervals[0].offset, layout.intervals[1].offset);
  EXPECT_EQ(layout.intervals[1].offset, layout.intervals[2].offset);
  EXPECT_EQ(layout.total_bytes, 1024);  // one slot, 64-aligned
  // Only the last occupant survives the iteration.
  EXPECT_FALSE(layout.intervals[0].preserved);
  EXPECT_FALSE(layout.intervals[1].preserved);
  EXPECT_TRUE(layout.intervals[2].preserved);
}

TEST(ArenaPlan, InPlaceAliasedDataAndDiffNeverShareAddresses) {
  // An in-place chain's data plane [1, 8] and its diff plane [5, 6] are
  // simultaneously live mid-backward; they must land on disjoint offsets.
  std::vector<plan::LifetimeInterval> ivs(2);
  ivs[0].name = "ip1";
  ivs[0].kind = plan::SlotKind::kData;
  ivs[0].start = 1;
  ivs[0].end = 8;
  ivs[0].bytes = 4096;
  ivs[1].name = "ip1";
  ivs[1].kind = plan::SlotKind::kDiff;
  ivs[1].start = 5;
  ivs[1].end = 6;
  ivs[1].bytes = 4096;
  const auto layout = plan::PlanArenaOffsets(ivs);
  EXPECT_FALSE(
      plan::AddrOverlap(layout.intervals[0], layout.intervals[1]));
  EXPECT_TRUE(plan::ValidateLayout(layout.intervals, nullptr));
}

TEST(ArenaPlan, ValidateLayoutCatchesInjectedCollision) {
  std::vector<plan::LifetimeInterval> ivs(2);
  ivs[0].name = "a";
  ivs[0].start = 0;
  ivs[0].end = 5;
  ivs[0].bytes = 512;
  ivs[1].name = "b";
  ivs[1].start = 3;
  ivs[1].end = 7;
  ivs[1].bytes = 512;
  auto layout = plan::PlanArenaOffsets(ivs);
  ASSERT_TRUE(plan::ValidateLayout(layout.intervals, nullptr));
  // The bad-plan sentinel: force the second live interval onto the first.
  layout.intervals[1].offset = layout.intervals[0].offset;
  std::string why;
  EXPECT_FALSE(plan::ValidateLayout(layout.intervals, &why));
  EXPECT_NE(why.find("share addresses"), std::string::npos);
}

// ---- JSON reader -----------------------------------------------------------

TEST(JsonLite, ParsesTheSubsetThePlannerWrites) {
  plan::JsonValue v;
  ASSERT_TRUE(plan::JsonValue::Parse(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -3}})", &v));
  EXPECT_DOUBLE_EQ(v.GetNumber("a"), 1.5);
  const auto* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_TRUE(b->array()[0].AsBool());
  EXPECT_EQ(b->array()[2].AsString(), "x\n\"y\"");
  ASSERT_NE(v.Find("c"), nullptr);
  EXPECT_EQ(v.Find("c")->GetInt("d"), -3);
}

TEST(JsonLite, MalformedInputsFail) {
  plan::JsonValue v;
  EXPECT_FALSE(plan::JsonValue::Parse("{", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("{\"a\": }", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("[1, 2,]", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("\"unterminated", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("{} trailing", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("", &v));
}

// ---- plan serialization + on-disk cache ------------------------------------

plan::ExecutionPlan MakePlanFixture() {
  plan::ExecutionPlan p;
  p.net_signature = "lenet|train|4|data:Data:7x1x28x28";
  p.batch = 7;
  p.threads = 8;
  p.git_sha = "abc1234";
  p.gemm_isa = "avx2";
  p.gflops = 42.5;
  p.mem_gbps = 11.25;
  p.col_slot_bytes = 8192;
  plan::ConvDecision d;
  d.layer = "conv1";
  d.forward_direct = true;
  d.backward_weights_direct = true;
  d.im2col_us = 10.5;
  d.direct_us = 7.25;
  d.measured_im2col_us = 9.5;
  d.measured_direct_us = 6.75;
  p.conv_decisions.push_back(d);
  plan::FusionGroup g;
  g.producer = "ip1";
  g.consumers = {"relu1"};
  p.fusion_groups.push_back(g);
  std::vector<plan::LifetimeInterval> ivs(2);
  ivs[0].name = "conv1";
  ivs[0].kind = plan::SlotKind::kData;
  ivs[0].blob_id = 2;
  ivs[0].start = 1;
  ivs[0].end = 8;
  ivs[0].bytes = 40960;
  ivs[1].name = "conv1";
  ivs[1].kind = plan::SlotKind::kDiff;
  ivs[1].blob_id = 2;
  ivs[1].start = 6;
  ivs[1].end = 8;
  ivs[1].bytes = 40960;
  p.arena = plan::PlanArenaOffsets(std::move(ivs));
  return p;
}

TEST(PlanJson, RoundTripsLosslessly) {
  const auto p = MakePlanFixture();
  plan::ExecutionPlan q;
  ASSERT_TRUE(plan::ExecutionPlan::FromJson(p.ToJson(), &q));
  EXPECT_EQ(p.ToJson(), q.ToJson());
  EXPECT_EQ(q.threads, 8);
  ASSERT_EQ(q.conv_decisions.size(), 1u);
  EXPECT_TRUE(q.conv_decisions[0].forward_direct);
  ASSERT_EQ(q.arena.intervals.size(), 2u);
  EXPECT_EQ(q.arena.intervals[1].kind, plan::SlotKind::kDiff);
  EXPECT_EQ(q.arena.total_bytes, p.arena.total_bytes);
}

TEST(PlanJson, RejectsMalformedPlans) {
  plan::ExecutionPlan q;
  EXPECT_FALSE(plan::ExecutionPlan::FromJson("not json", &q));
  EXPECT_FALSE(plan::ExecutionPlan::FromJson("{}", &q));  // missing key fields
}

TEST(PlanCache, RoundTripAndKeyInvalidation) {
  const std::string dir = ::testing::TempDir() + "cgdnn_plan_cache_test";
  std::filesystem::remove_all(dir);  // stale entries from a prior run
  const auto p = MakePlanFixture();
  plan::StorePlan(p, dir);

  plan::PlanCacheKey key{p.net_signature, p.batch, p.threads, p.git_sha,
                         p.gemm_isa};
  plan::ExecutionPlan loaded;
  ASSERT_TRUE(plan::LoadCachedPlan(key, dir, &loaded));
  EXPECT_EQ(loaded.ToJson(), p.ToJson());

  auto stale = key;
  stale.git_sha = "fffffff";  // rebuilt binary: measurements are stale
  EXPECT_FALSE(plan::LoadCachedPlan(stale, dir, &loaded));
  auto other_threads = key;
  other_threads.threads = 3;
  EXPECT_FALSE(plan::LoadCachedPlan(other_threads, dir, &loaded));
  auto other_batch = key;
  other_batch.batch = 64;
  EXPECT_FALSE(plan::LoadCachedPlan(other_batch, dir, &loaded));

  // A torn/corrupt file degrades to a miss, never a wrong plan.
  data::WriteFileAtomic(plan::PlanCachePath(key, dir), "{\"garbage\": tru");
  EXPECT_FALSE(plan::LoadCachedPlan(key, dir, &loaded));
}

TEST(PlanCache, PlanMeasuredUnderOneGemmIsaMissesUnderAnother) {
  // Same checkout, same net, another CGDNN_ISA: the measured im2col-vs-
  // direct timings were taken with a different kernel, so the plan is a
  // miss — both for a lookup under another ISA and for a file written
  // before plans carried the field.
  const std::string dir = ::testing::TempDir() + "cgdnn_plan_isa_test";
  std::filesystem::remove_all(dir);
  auto p = MakePlanFixture();
  plan::StorePlan(p, dir);
  plan::PlanCacheKey key{p.net_signature, p.batch, p.threads, p.git_sha,
                         p.gemm_isa};
  plan::ExecutionPlan loaded;
  ASSERT_TRUE(plan::LoadCachedPlan(key, dir, &loaded));
  EXPECT_EQ(loaded.gemm_isa, "avx2");

  for (const char* other : {"baseline", "avx512"}) {
    auto other_isa = key;
    other_isa.gemm_isa = other;
    EXPECT_FALSE(plan::LoadCachedPlan(other_isa, dir, &loaded)) << other;
  }

  // A pre-ISA file under the live key's name: the re-verified (empty) ISA
  // field mismatches, so it is a miss, and the file is left in place.
  std::string legacy = p.ToJson();
  const std::string field = "  \"gemm_isa\": \"avx2\",\n";
  ASSERT_NE(legacy.find(field), std::string::npos);
  legacy.erase(legacy.find(field), field.size());
  data::WriteFileAtomic(plan::PlanCachePath(key, dir), legacy);
  EXPECT_FALSE(plan::LoadCachedPlan(key, dir, &loaded));
  EXPECT_TRUE(std::filesystem::exists(plan::PlanCachePath(key, dir)));
}

TEST(PlanCache, BuildPlanStampsTheActiveGemmIsa) {
  models::ModelOptions o;
  o.batch_size = 2;
  o.num_samples = 4;
  o.with_accuracy = false;
  SeedGlobalRng(4321);
  data::ClearDatasetCache();
  Net<float> net(models::LeNet(o), Phase::kTrain);
  plan::PlannerOptions opts;
  opts.threads = 1;
  opts.use_cache = false;
  opts.measure = false;
  EXPECT_EQ(plan::BuildPlan(net, opts).plan.gemm_isa,
            GemmIsaName(ActiveGemmIsa()));
}

TEST(PlanCache, WarmHitSkipsMeasurementAndIsFaster) {
  const std::string dir = ::testing::TempDir() + "cgdnn_plan_warm_test";
  std::filesystem::remove_all(dir);  // a prior run's cache would fake a hit
  models::ModelOptions o;
  o.batch_size = 4;
  o.num_samples = 8;
  o.with_accuracy = false;
  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(models::LeNet(o), Phase::kTrain);

  plan::PlannerOptions opts;
  opts.threads = 2;
  opts.cache_dir = dir;
  opts.measure = true;
  const auto cold = plan::BuildPlan(net, opts);
  EXPECT_FALSE(cold.cache_hit);
  const auto warm = plan::BuildPlan(net, opts);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan.ToJson(), cold.plan.ToJson());
  // The warm path skips the machine-peak probes and the per-shape kernel
  // timings; anything less than a 2x gap means it re-measured.
  EXPECT_LT(warm.build_us, cold.build_us / 2);

  // A different thread count is a different plan: cold again.
  opts.threads = 4;
  EXPECT_FALSE(plan::BuildPlan(net, opts).cache_hit);
}

}  // namespace
}  // namespace cgdnn
