#include "cgdnn/parallel/merge.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cgdnn/blas/blas.hpp"

namespace cgdnn::parallel {
namespace {

/// Runs AccumulatePrivate inside a parallel region the way the layers do:
/// each thread owns parts[tid] (already filled) and all threads call the
/// merge collectively.
template <typename Dtype>
std::vector<Dtype> RunMerge(GradientMerge mode,
                            const std::vector<std::vector<Dtype>>& parts,
                            std::vector<Dtype> dest) {
  Parallel::Config();  // ensures omp_set_dynamic(0): exact team sizes
  const int nthreads = static_cast<int>(parts.size());
  std::vector<std::vector<Dtype>> scratch = parts;  // kTree destroys parts
  std::vector<Dtype*> ptrs;
  for (auto& p : scratch) ptrs.push_back(p.data());
  const auto n = static_cast<index_t>(dest.size());
#pragma omp parallel num_threads(nthreads)
  {
    AccumulatePrivate(mode, ptrs.data(), nthreads, dest.data(), n);
  }
  return dest;
}

template <typename Dtype>
std::vector<std::vector<Dtype>> MakeParts(int nthreads, index_t n) {
  std::vector<std::vector<Dtype>> parts;
  for (int t = 0; t < nthreads; ++t) {
    std::vector<Dtype> p(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      p[static_cast<std::size_t>(i)] =
          static_cast<Dtype>((t + 1) * 100 + i) / Dtype(7);
    }
    parts.push_back(std::move(p));
  }
  return parts;
}

template <typename Dtype>
std::vector<Dtype> SequentialSum(const std::vector<std::vector<Dtype>>& parts,
                                 std::vector<Dtype> dest) {
  for (const auto& p : parts) {
    blas::axpy(static_cast<index_t>(dest.size()), Dtype(1), p.data(),
               dest.data());
  }
  return dest;
}

class MergeModes : public ::testing::TestWithParam<GradientMerge> {};

TEST_P(MergeModes, AccumulatesAllParts) {
  constexpr int kThreads = 4;
  constexpr index_t kN = 257;  // not a multiple of anything interesting
  const auto parts = MakeParts<double>(kThreads, kN);
  std::vector<double> dest(kN, 0.5);  // pre-existing gradient accumulates
  const auto expected = SequentialSum(parts, dest);
  const auto result = RunMerge(GetParam(), parts, dest);
  ASSERT_EQ(result.size(), expected.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_NEAR(result[i], expected[i], 1e-12) << "element " << i;
  }
}

TEST_P(MergeModes, DeterministicAcrossRuns) {
  constexpr int kThreads = 8;
  constexpr index_t kN = 64;
  const auto parts = MakeParts<float>(kThreads, kN);
  const std::vector<float> dest(kN, 0.0f);
  const auto a = RunMerge(GetParam(), parts, dest);
  const auto b = RunMerge(GetParam(), parts, dest);
  if (GetParam() == GradientMerge::kAtomic) {
    // Arrival order is nondeterministic, so two runs may associate the sum
    // differently. Any two orders of a T-part float sum agree within the
    // re-association bound (T-1) * eps * sum_t |part_t| per element.
    for (std::size_t i = 0; i < a.size(); ++i) {
      double abs_sum = 0;
      for (const auto& p : parts) abs_sum += std::abs(double(p[i]));
      const double bound =
          (kThreads - 1) * std::numeric_limits<float>::epsilon() * abs_sum;
      EXPECT_NEAR(a[i], b[i], bound) << "element " << i;
    }
  } else {
    EXPECT_EQ(a, b) << "ordered/tree merges are bit-reproducible";
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MergeModes,
                         ::testing::Values(GradientMerge::kOrdered,
                                           GradientMerge::kAtomic,
                                           GradientMerge::kTree),
                         [](const auto& tpi) {
                           return std::string(GradientMergeName(tpi.param));
                         });

TEST(MergeOrdered, BitIdenticalToTidOrderedSequentialFold) {
  // The defining property (Algorithm 5, lines 22-24): the parallel ordered
  // merge produces exactly the left-to-right tid-ordered fold.
  constexpr int kThreads = 7;
  constexpr index_t kN = 123;
  const auto parts = MakeParts<float>(kThreads, kN);
  const std::vector<float> dest(kN, 1.0f);
  const auto expected = SequentialSum(parts, dest);
  const auto result = RunMerge(GradientMerge::kOrdered, parts, dest);
  EXPECT_EQ(result, expected);
}

TEST(MergeTree, SinglePartEqualsThatPart) {
  const auto parts = MakeParts<double>(1, 16);
  const std::vector<double> dest(16, 0.0);
  const auto result = RunMerge(GradientMerge::kTree, parts, dest);
  EXPECT_EQ(result, parts[0]);
}

TEST(MergeOrdered, WorksWithNonPowerOfTwoThreadCounts) {
  for (const int t : {2, 3, 5, 6}) {
    const auto parts = MakeParts<double>(t, 10);
    const std::vector<double> dest(10, 0.0);
    const auto expected = SequentialSum(parts, dest);
    EXPECT_EQ(RunMerge(GradientMerge::kOrdered, parts, dest), expected)
        << t << " threads";
  }
}

TEST(MergeTree, WorksWithNonPowerOfTwoThreadCounts) {
  for (const int t : {3, 5, 7}) {
    const auto parts = MakeParts<double>(t, 10);
    const std::vector<double> dest(10, 0.0);
    const auto expected = SequentialSum(parts, dest);
    const auto result = RunMerge(GradientMerge::kTree, parts, dest);
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_NEAR(result[i], expected[i], 1e-12) << t << " threads";
    }
  }
}

TEST(GradientMergeNames, RoundTrip) {
  for (const auto mode :
       {GradientMerge::kSerial, GradientMerge::kOrdered, GradientMerge::kAtomic,
        GradientMerge::kTree}) {
    EXPECT_EQ(GradientMergeFromName(GradientMergeName(mode)), mode);
  }
  EXPECT_THROW(GradientMergeFromName("bogus"), Error);
}

TEST(ParallelConfig, ScopeRestoresPreviousConfig) {
  const auto saved = Parallel::Config();
  {
    ParallelConfig cfg;
    cfg.num_threads = 13;
    cfg.merge = GradientMerge::kTree;
    Parallel::Scope scope(cfg);
    EXPECT_EQ(Parallel::Config().num_threads, 13);
    EXPECT_EQ(Parallel::Config().merge, GradientMerge::kTree);
  }
  EXPECT_EQ(Parallel::Config().num_threads, saved.num_threads);
  EXPECT_EQ(Parallel::Config().merge, saved.merge);
}

TEST(ParallelConfig, SerialModeResolvesOneThread) {
  ParallelConfig cfg;
  cfg.mode = ExecutionMode::kSerial;
  cfg.num_threads = 8;
  Parallel::Scope scope(cfg);
  EXPECT_EQ(Parallel::ResolveThreads(), 1);
  EXPECT_FALSE(Parallel::CoarseGrain());
}

TEST(ParallelConfig, CoarseGrainRequiresMultipleThreads) {
  ParallelConfig cfg;
  cfg.mode = ExecutionMode::kCoarseGrain;
  cfg.num_threads = 1;
  Parallel::Scope scope(cfg);
  EXPECT_FALSE(Parallel::CoarseGrain());
  cfg.num_threads = 4;
  Parallel::Scope scope2(cfg);
  EXPECT_TRUE(Parallel::CoarseGrain());
  EXPECT_EQ(Parallel::ResolveThreads(), 4);
}

}  // namespace
}  // namespace cgdnn::parallel
