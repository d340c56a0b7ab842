// Serial vs coarse-grain equivalence at the layer level: for every layer of
// both evaluation networks, the OpenMP batch-parallel forward/backward must
// reproduce the serial results. Forward activations and bottom diffs are
// written to disjoint per-sample slots and must match BIT-EXACTLY for any
// thread count; privatized weight gradients are merged in thread-id order
// and must match the serial accumulation to floating-point re-association
// tolerance (and bit-exactly run-to-run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/parallel/coalesce.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/plan/planner.hpp"

namespace cgdnn {
namespace {

struct NetState {
  std::vector<std::vector<float>> blob_data;
  std::vector<std::vector<float>> blob_diff;
  std::vector<std::vector<float>> param_diff;
  std::vector<std::string> param_layer_type;  // type of the owning layer
};

NetState CaptureState(const Net<float>& net) {
  NetState s;
  for (const auto& blob : net.blobs()) {
    const float* d = blob->cpu_data();
    const float* g = blob->cpu_diff();
    s.blob_data.emplace_back(d, d + blob->count());
    s.blob_diff.emplace_back(g, g + blob->count());
  }
  for (const auto* p : net.learnable_params()) {
    const float* g = p->cpu_diff();
    s.param_diff.emplace_back(g, g + p->count());
  }
  s.param_layer_type.resize(s.param_diff.size());
  const auto& params = net.learnable_params();
  for (const auto& layer : net.layers()) {
    for (const auto& b : layer->blobs()) {
      const auto it = std::find(params.begin(), params.end(), b.get());
      if (it == params.end()) continue;
      s.param_layer_type[static_cast<std::size_t>(it - params.begin())] =
          layer->type();
    }
  }
  return s;
}

NetState RunOnce(const proto::NetParameter& param, int threads,
                 parallel::GradientMerge merge,
                 std::vector<std::string>* blob_names = nullptr) {
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = merge;
  parallel::Parallel::Scope scope(cfg);

  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  net.ClearParamDiffs();
  net.ForwardBackward();
  if (blob_names != nullptr) *blob_names = net.blob_names();
  return CaptureState(net);
}

// Like ExpectActivationsBitEqual, but names the offending layer output so a
// failure reads "blob 'conv2'", not "blob 4".
void ExpectActivationsBitEqualNamed(const NetState& a, const NetState& b,
                                    const std::vector<std::string>& names) {
  ASSERT_EQ(a.blob_data.size(), b.blob_data.size());
  ASSERT_EQ(a.blob_data.size(), names.size());
  for (std::size_t i = 0; i < a.blob_data.size(); ++i) {
    EXPECT_EQ(a.blob_data[i], b.blob_data[i])
        << "activation data of blob '" << names[i] << "'";
    EXPECT_EQ(a.blob_diff[i], b.blob_diff[i])
        << "back-propagated diff of blob '" << names[i] << "'";
  }
}

void ExpectActivationsBitEqual(const NetState& a, const NetState& b) {
  ASSERT_EQ(a.blob_data.size(), b.blob_data.size());
  for (std::size_t i = 0; i < a.blob_data.size(); ++i) {
    EXPECT_EQ(a.blob_data[i], b.blob_data[i]) << "activation blob " << i;
    EXPECT_EQ(a.blob_diff[i], b.blob_diff[i]) << "diff blob " << i;
  }
}

void ExpectParamDiffsClose(const NetState& a, const NetState& b,
                           double rel_tol) {
  ASSERT_EQ(a.param_diff.size(), b.param_diff.size());
  for (std::size_t p = 0; p < a.param_diff.size(); ++p) {
    ASSERT_EQ(a.param_diff[p].size(), b.param_diff[p].size());
    for (std::size_t i = 0; i < a.param_diff[p].size(); ++i) {
      const double ref = a.param_diff[p][i];
      const double got = b.param_diff[p][i];
      const double tol =
          rel_tol * std::max({std::abs(ref), std::abs(got), 1e-4});
      EXPECT_NEAR(got, ref, tol) << "param " << p << " element " << i;
    }
  }
}

// InnerProduct partitions its parameter gradients by output row, not by
// sample: nothing is merged, so they must match the serial GEMM bit for bit.
void ExpectInnerProductParamDiffsBitEqual(const NetState& a,
                                          const NetState& b) {
  ASSERT_EQ(a.param_diff.size(), b.param_diff.size());
  int checked = 0;
  for (std::size_t p = 0; p < a.param_diff.size(); ++p) {
    if (a.param_layer_type[p] != "InnerProduct") continue;
    EXPECT_EQ(a.param_diff[p], b.param_diff[p]) << "param " << p;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// Per-element sum over threads of |private gradient part| for every
// learnable parameter of a run at `threads` threads. A conv layer's part for
// thread t is its weight/bias gradient over t's static sample chunk alone:
// the serial backward with every other sample's top diff zeroed (their
// products add exact zeros). Other parameters are never merged, so their
// one part is the gradient itself.
std::vector<std::vector<double>> MergePartAbsSums(
    const proto::NetParameter& param, int threads) {
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kSerial;
  parallel::Parallel::Scope scope(cfg);
  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  net.ClearParamDiffs();
  net.ForwardBackward();

  const auto& params = net.learnable_params();
  std::vector<std::vector<double>> sums;
  for (const auto* p : params) {
    sums.emplace_back();
    for (index_t i = 0; i < p->count(); ++i) {
      sums.back().push_back(std::abs(double(p->cpu_diff()[i])));
    }
  }
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    Layer<float>& layer = *net.layers()[li];
    if (std::string(layer.type()) != "Convolution") continue;
    Blob<float>& top = *net.top_vecs()[li][0];
    const std::vector<float> full(top.cpu_diff(),
                                  top.cpu_diff() + top.count());
    const index_t dim = top.count(1);
    std::vector<std::size_t> ids;
    for (const auto& b : layer.blobs()) {
      const auto it = std::find(params.begin(), params.end(), b.get());
      ids.push_back(static_cast<std::size_t>(it - params.begin()));
      std::fill(sums[ids.back()].begin(), sums[ids.back()].end(), 0.0);
    }
    for (int t = 0; t < threads; ++t) {
      const auto chunk = parallel::StaticChunk(top.num(), threads, t);
      float* diff = top.mutable_cpu_diff();
      for (index_t i = 0; i < top.count(); ++i) {
        const index_t n = i / dim;
        diff[i] = n >= chunk.begin && n < chunk.end ? full[i] : 0.0f;
      }
      for (const auto& b : layer.blobs()) {
        std::fill_n(b->mutable_cpu_diff(), b->count(), 0.0f);
      }
      layer.Backward(net.top_vecs()[li], {false}, net.bottom_vecs()[li]);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const float* g = layer.blobs()[k]->cpu_diff();
        for (std::size_t i = 0; i < sums[ids[k]].size(); ++i) {
          sums[ids[k]][i] += std::abs(double(g[i]));
        }
      }
    }
  }
  return sums;
}

// Unordered merges (tree, atomic) may associate each parameter's T-part sum
// differently from run to run; any two orders agree within the
// re-association bound (T-1) * eps * sum_t |part_t| per element.
void ExpectParamDiffsWithinMergeBound(
    const NetState& a, const NetState& b,
    const std::vector<std::vector<double>>& abs_sums, int threads) {
  ASSERT_EQ(a.param_diff.size(), abs_sums.size());
  for (std::size_t p = 0; p < a.param_diff.size(); ++p) {
    ASSERT_EQ(a.param_diff[p].size(), abs_sums[p].size());
    for (std::size_t i = 0; i < a.param_diff[p].size(); ++i) {
      const double bound = (threads - 1) *
                           std::numeric_limits<float>::epsilon() *
                           abs_sums[p][i];
      EXPECT_NEAR(b.param_diff[p][i], a.param_diff[p][i], bound)
          << "param " << p << " element " << i;
    }
  }
}

proto::NetParameter LeNetParam(int batch_size = 12) {
  models::ModelOptions o;
  o.batch_size = batch_size;  // default 12: not a multiple of most counts
  o.num_samples = 32;
  o.with_accuracy = false;
  return models::LeNet(o);
}

proto::NetParameter CifarParam(int batch_size = 6) {
  models::ModelOptions o;
  o.batch_size = batch_size;
  o.num_samples = 32;
  o.with_accuracy = false;
  return models::Cifar10Quick(o);
}

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, LeNetActivationsBitIdenticalToSerial) {
  const auto serial = RunOnce(LeNetParam(), 1, parallel::GradientMerge::kSerial);
  const auto parallel_run =
      RunOnce(LeNetParam(), GetParam(), parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqual(serial, parallel_run);
  ExpectParamDiffsClose(serial, parallel_run, 1e-4);
  ExpectInnerProductParamDiffsBitEqual(serial, parallel_run);
}

TEST_P(ParallelEquivalence, CifarActivationsBitIdenticalToSerial) {
  const auto serial = RunOnce(CifarParam(), 1, parallel::GradientMerge::kSerial);
  const auto parallel_run =
      RunOnce(CifarParam(), GetParam(), parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqual(serial, parallel_run);
  ExpectParamDiffsClose(serial, parallel_run, 1e-4);
  ExpectInnerProductParamDiffsBitEqual(serial, parallel_run);
}

TEST_P(ParallelEquivalence, OrderedMergeBitReproducibleAcrossRuns) {
  const auto a = RunOnce(LeNetParam(), GetParam(),
                         parallel::GradientMerge::kOrdered);
  const auto b = RunOnce(LeNetParam(), GetParam(),
                         parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqual(a, b);
  for (std::size_t p = 0; p < a.param_diff.size(); ++p) {
    EXPECT_EQ(a.param_diff[p], b.param_diff[p]) << "param " << p;
  }
}

TEST_P(ParallelEquivalence, TreeMergeCloseToSerial) {
  const auto serial = RunOnce(LeNetParam(), 1, parallel::GradientMerge::kSerial);
  const auto tree =
      RunOnce(LeNetParam(), GetParam(), parallel::GradientMerge::kTree);
  ExpectActivationsBitEqual(serial, tree);
  ExpectParamDiffsClose(serial, tree, 1e-4);
}

TEST_P(ParallelEquivalence, AtomicMergeCloseToSerial) {
  const auto serial = RunOnce(LeNetParam(), 1, parallel::GradientMerge::kSerial);
  const auto atomic =
      RunOnce(LeNetParam(), GetParam(), parallel::GradientMerge::kAtomic);
  ExpectActivationsBitEqual(serial, atomic);
  ExpectParamDiffsClose(serial, atomic, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalence,
                         ::testing::Values(2, 3, 4, 8),
                         [](const auto& tpi) {
                           std::string name = "threads";
                           name += std::to_string(tpi.param);
                           return name;
                         });

// Per-layer sweep over 1 vs {2, 5, 8, 16} threads with batch sizes that no
// swept thread count divides (7 and 9): uneven static chunks, and at 16
// threads more workers than samples, so some threads own empty partitions.
// Every layer's output must still match the serial run bit-for-bit, with
// failures attributed to the offending blob by name.
class PerLayerThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PerLayerThreadSweep, LeNetIndivisibleBatchBitIdentical) {
  const auto param = LeNetParam(/*batch_size=*/7);
  std::vector<std::string> names;
  const auto serial =
      RunOnce(param, 1, parallel::GradientMerge::kSerial, &names);
  const auto parallel_run =
      RunOnce(param, GetParam(), parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqualNamed(serial, parallel_run, names);
  ExpectParamDiffsClose(serial, parallel_run, 1e-4);
  ExpectInnerProductParamDiffsBitEqual(serial, parallel_run);
}

TEST_P(PerLayerThreadSweep, CifarIndivisibleBatchBitIdentical) {
  const auto param = CifarParam(/*batch_size=*/9);
  std::vector<std::string> names;
  const auto serial =
      RunOnce(param, 1, parallel::GradientMerge::kSerial, &names);
  const auto parallel_run =
      RunOnce(param, GetParam(), parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqualNamed(serial, parallel_run, names);
  ExpectParamDiffsClose(serial, parallel_run, 1e-4);
  ExpectInnerProductParamDiffsBitEqual(serial, parallel_run);
}

TEST_P(PerLayerThreadSweep, OrderedMergeRunToRunBitEqual) {
  // Param diffs may differ from serial only by re-association tolerance,
  // but two runs at the same thread count must agree bit-for-bit.
  const auto param = LeNetParam(/*batch_size=*/7);
  const auto a = RunOnce(param, GetParam(), parallel::GradientMerge::kOrdered);
  const auto b = RunOnce(param, GetParam(), parallel::GradientMerge::kOrdered);
  ExpectActivationsBitEqual(a, b);
  for (std::size_t p = 0; p < a.param_diff.size(); ++p) {
    EXPECT_EQ(a.param_diff[p], b.param_diff[p]) << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PerLayerThreadSweep,
                         ::testing::Values(2, 5, 8, 16),
                         [](const auto& tpi) {
                           std::string name = "threads";
                           name += std::to_string(tpi.param);
                           return name;
                         });

// ---- planned execution: cost-model plan vs plain execution ----------------
//
// The planner's every decision (direct conv kernels, fused epilogues,
// arena-rebound activations) claims bit-identity with the unplanned net.
// These sweeps enforce the claim at every thread count and merge mode, with
// the write-set checker armed so fused regions still prove their write
// discipline. Arena planes whose slot is legitimately reused later in the
// timeline hold garbage after the iteration; the plan's `preserved` flags
// say exactly which — everything else must match bit-for-bit.

struct PlannedRun {
  NetState state;
  plan::ExecutionPlan plan;
};

PlannedRun RunOncePlanned(const proto::NetParameter& param, int threads,
                          parallel::GradientMerge merge) {
  parallel::ParallelConfig cfg;
  cfg.mode = threads > 1 ? parallel::ExecutionMode::kCoarseGrain
                         : parallel::ExecutionMode::kSerial;
  cfg.num_threads = threads;
  cfg.merge = merge;
  parallel::Parallel::Scope scope(cfg);
  check::ScopedEnable armed;

  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(param, Phase::kTrain);
  plan::PlannerOptions opts;
  opts.threads = threads;
  opts.use_cache = false;  // decisions under test, not the cache
  opts.measure = false;
  auto built = plan::BuildPlan(net, opts);
  // Force the direct kernels everywhere they are legal: the cost model may
  // or may not pick them on this host, but bit-identity must hold either
  // way, so the sweep pins the more adventurous choice.
  for (auto& d : built.plan.conv_decisions) {
    d.forward_direct = true;
    d.backward_weights_direct = true;
  }
  plan::ApplyPlan(&net, built.plan);
  net.ClearParamDiffs();
  net.ForwardBackward();
  return {CaptureState(net), std::move(built.plan)};
}

void ExpectPlannedBitIdentical(const NetState& ref, const PlannedRun& planned,
                               const std::vector<std::string>& names,
                               const std::vector<std::vector<double>>*
                                   unordered_abs_sums = nullptr,
                               int threads = 1) {
  ASSERT_EQ(ref.blob_data.size(), planned.state.blob_data.size());
  ASSERT_EQ(ref.blob_data.size(), names.size());
  std::vector<bool> data_ok(ref.blob_data.size(), true);
  std::vector<bool> diff_ok(ref.blob_data.size(), true);
  for (const auto& iv : planned.plan.arena.intervals) {
    if (iv.blob_id < 0 || iv.preserved) continue;
    if (iv.kind == plan::SlotKind::kData) {
      data_ok[static_cast<std::size_t>(iv.blob_id)] = false;
    } else if (iv.kind == plan::SlotKind::kDiff) {
      diff_ok[static_cast<std::size_t>(iv.blob_id)] = false;
    }
  }
  for (std::size_t i = 0; i < ref.blob_data.size(); ++i) {
    if (data_ok[i]) {
      EXPECT_EQ(ref.blob_data[i], planned.state.blob_data[i])
          << "planned data of blob '" << names[i] << "'";
    }
    if (diff_ok[i]) {
      EXPECT_EQ(ref.blob_diff[i], planned.state.blob_diff[i])
          << "planned diff of blob '" << names[i] << "'";
    }
  }
  // Same thread count, same merge mode: parameter gradients agree
  // bit-for-bit for the deterministic merges (serial, ordered). Tree and
  // atomic merges are not bit-reproducible across process runs (atomics
  // commit in arrival order), so for those the caller passes the per-element
  // part magnitudes (MergePartAbsSums) and gets the re-association bound.
  ASSERT_EQ(ref.param_diff.size(), planned.state.param_diff.size());
  if (unordered_abs_sums == nullptr) {
    for (std::size_t p = 0; p < ref.param_diff.size(); ++p) {
      EXPECT_EQ(ref.param_diff[p], planned.state.param_diff[p])
          << "planned param diff " << p;
    }
  } else {
    ExpectParamDiffsWithinMergeBound(ref, planned.state, *unordered_abs_sums,
                                     threads);
  }
}

class PlannedThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlannedThreadSweep, LeNetPlannedBitIdenticalToUnplanned) {
  const auto param = LeNetParam(/*batch_size=*/7);
  const auto merge = GetParam() > 1 ? parallel::GradientMerge::kOrdered
                                    : parallel::GradientMerge::kSerial;
  std::vector<std::string> names;
  const auto ref = RunOnce(param, GetParam(), merge, &names);
  const auto planned = RunOncePlanned(param, GetParam(), merge);
  // The plan must actually exercise the machinery it claims to test.
  EXPECT_FALSE(planned.plan.fusion_groups.empty());
  EXPECT_GT(planned.plan.arena.total_bytes, 0);
  EXPECT_LT(planned.plan.arena.total_bytes,
            planned.plan.arena.per_plane_bytes);
  ExpectPlannedBitIdentical(ref, planned, names);
}

TEST_P(PlannedThreadSweep, CifarPlannedBitIdenticalToUnplanned) {
  const auto param = CifarParam(/*batch_size=*/9);
  const auto merge = GetParam() > 1 ? parallel::GradientMerge::kOrdered
                                    : parallel::GradientMerge::kSerial;
  std::vector<std::string> names;
  const auto ref = RunOnce(param, GetParam(), merge, &names);
  const auto planned = RunOncePlanned(param, GetParam(), merge);
  EXPECT_FALSE(planned.plan.fusion_groups.empty());
  EXPECT_FALSE(planned.plan.conv_decisions.empty());
  ExpectPlannedBitIdentical(ref, planned, names);
}

TEST_P(PlannedThreadSweep, AllMergeModesBitIdentical) {
  if (GetParam() == 1) return;  // merge modes only exist in parallel runs
  const auto param = LeNetParam(/*batch_size=*/7);
  const auto abs_sums = MergePartAbsSums(param, GetParam());
  for (const auto merge :
       {parallel::GradientMerge::kOrdered, parallel::GradientMerge::kTree,
        parallel::GradientMerge::kAtomic}) {
    std::vector<std::string> names;
    const auto ref = RunOnce(param, GetParam(), merge, &names);
    const auto planned = RunOncePlanned(param, GetParam(), merge);
    ExpectPlannedBitIdentical(
        ref, planned, names,
        merge == parallel::GradientMerge::kOrdered ? nullptr : &abs_sums,
        GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PlannedThreadSweep,
                         ::testing::Values(1, 2, 5, 8, 16),
                         [](const auto& tpi) {
                           std::string name = "threads";
                           name += std::to_string(tpi.param);
                           return name;
                         });

TEST(ParallelEquivalence, CoalescingOffStillCorrect) {
  const auto serial = RunOnce(LeNetParam(), 1, parallel::GradientMerge::kSerial);
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = 4;
  cfg.merge = parallel::GradientMerge::kOrdered;
  cfg.coalesce = false;
  parallel::Parallel::Scope scope(cfg);
  SeedGlobalRng(1234);
  data::ClearDatasetCache();
  Net<float> net(LeNetParam(), Phase::kTrain);
  net.ClearParamDiffs();
  net.ForwardBackward();
  const auto state = CaptureState(net);
  ExpectActivationsBitEqual(serial, state);
  ExpectParamDiffsClose(serial, state, 1e-4);
}

}  // namespace
}  // namespace cgdnn
