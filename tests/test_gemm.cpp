#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/rng.hpp"

namespace cgdnn::blas {
namespace {

/// Textbook O(mnk) reference with explicit op() indexing — the oracle for
/// every kernel variant.
template <typename Dtype>
void NaiveGemm(Transpose ta, Transpose tb, index_t m, index_t n, index_t k,
               Dtype alpha, const Dtype* a, const Dtype* b, Dtype beta,
               Dtype* c) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      Dtype sum = 0;
      for (index_t kk = 0; kk < k; ++kk) {
        const Dtype av = ta == Transpose::kTrans ? a[kk * m + i] : a[i * k + kk];
        const Dtype bv = tb == Transpose::kTrans ? b[j * k + kk] : b[kk * n + j];
        sum += av * bv;
      }
      c[i * n + j] = alpha * sum + beta * c[i * n + j];
    }
  }
}

template <typename Dtype>
std::vector<Dtype> RandomVec(index_t n, Rng& rng) {
  std::vector<Dtype> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<Dtype>(rng.Uniform(-1.0, 1.0));
  return v;
}

// ---- fixed small cases -----------------------------------------------------

TEST(Gemm, TwoByTwoNN) {
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  gemm<float>(Transpose::kNo, Transpose::kNo, 2, 2, 2, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, BetaAccumulation) {
  const float a[] = {1, 0, 0, 1};  // identity
  const float b[] = {2, 3, 4, 5};
  float c[4] = {10, 10, 10, 10};
  gemm<float>(Transpose::kNo, Transpose::kNo, 2, 2, 2, 1.0f, a, b, 0.5f, c);
  EXPECT_FLOAT_EQ(c[0], 7);
  EXPECT_FLOAT_EQ(c[3], 10);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const float a[] = {1, 2, 3, 4};
  float c[4] = {1, 2, 3, 4};
  gemm<float>(Transpose::kNo, Transpose::kNo, 2, 2, 2, 0.0f, a, a, 2.0f, c);
  EXPECT_FLOAT_EQ(c[0], 2);
  EXPECT_FLOAT_EQ(c[3], 8);
}

TEST(Gemm, BetaZeroOverwritesStaleC) {
  const float a[] = {1, 1};
  const float b[] = {1, 1};
  float c[1] = {1e30f};  // must not leak into the result
  gemm<float>(Transpose::kNo, Transpose::kTrans, 1, 1, 2, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 2);
}

TEST(Gemm, DegenerateDimensions) {
  float c[2] = {5, 5};
  const float a[2] = {1, 2};
  // k == 0: C := beta * C.
  gemm<float>(Transpose::kNo, Transpose::kNo, 1, 2, 0, 1.0f, a, a, 2.0f, c);
  EXPECT_FLOAT_EQ(c[0], 10);
  EXPECT_FLOAT_EQ(c[1], 10);
}

// ---- property sweep over shapes and transpose combos -----------------------

using GemmCase = std::tuple<int, int, int, int>;  // m, n, k, transpose combo

class GemmAgainstNaive : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmAgainstNaive, DoubleMatchesReference) {
  const auto [m, n, k, combo] = GetParam();
  const Transpose ta = combo & 1 ? Transpose::kTrans : Transpose::kNo;
  const Transpose tb = combo & 2 ? Transpose::kTrans : Transpose::kNo;
  Rng rng(static_cast<std::uint64_t>(m) * 73856093u ^
          static_cast<std::uint64_t>(n) * 19349663u ^
          static_cast<std::uint64_t>(k) * 83492791u ^
          static_cast<std::uint64_t>(combo));
  auto a = RandomVec<double>(m * k, rng);
  auto b = RandomVec<double>(k * n, rng);
  auto c = RandomVec<double>(m * n, rng);
  auto c_ref = c;
  gemm<double>(ta, tb, m, n, k, 1.7, a.data(), b.data(), 0.3, c.data());
  NaiveGemm<double>(ta, tb, m, n, k, 1.7, a.data(), b.data(), 0.3,
                    c_ref.data());
  for (index_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                c_ref[static_cast<std::size_t>(i)], 1e-10)
        << "element " << i << " combo " << combo;
  }
}

TEST_P(GemmAgainstNaive, FinegrainMatchesSerial) {
  const auto [m, n, k, combo] = GetParam();
  const Transpose ta = combo & 1 ? Transpose::kTrans : Transpose::kNo;
  const Transpose tb = combo & 2 ? Transpose::kTrans : Transpose::kNo;
  Rng rng(static_cast<std::uint64_t>(combo * 31 + m + n + k));
  auto a = RandomVec<double>(m * k, rng);
  auto b = RandomVec<double>(k * n, rng);
  std::vector<double> c1(static_cast<std::size_t>(m * n), 0.0);
  auto c2 = c1;
  NaiveGemm<double>(ta, tb, m, n, k, 1.0, a.data(), b.data(), 0.0, c1.data());
  finegrain::set_num_threads(3);
  finegrain::gemm<double>(ta, tb, m, n, k, 1.0, a.data(), b.data(), 0.0,
                          c2.data());
  finegrain::set_num_threads(0);
  EXPECT_EQ(c1, c2) << "row-parallel gemm must be bit-identical to the "
                       "inner-product reference";
}

std::string GemmCaseName(const ::testing::TestParamInfo<GemmCase>& tpi) {
  const auto [m, n, k, combo] = tpi.param;
  static constexpr const char* kComboNames[4] = {"NN", "TN", "NT", "TT"};
  std::string name = "m";
  name += std::to_string(m);
  name += 'n';
  name += std::to_string(n);
  name += 'k';
  name += std::to_string(k);
  name += kComboNames[combo];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAgainstNaive,
    ::testing::Combine(::testing::Values(1, 3, 17, 64),
                       ::testing::Values(1, 5, 33),
                       ::testing::Values(1, 8, 300),
                       ::testing::Values(0, 1, 2, 3)),
    GemmCaseName);

// ---- gemv / ger property sweep ---------------------------------------------

class GemvAgainstNaive : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(GemvAgainstNaive, BothTransposesMatchReference) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n));
  const auto a = RandomVec<double>(m * n, rng);
  const auto x_n = RandomVec<double>(n, rng);
  const auto x_t = RandomVec<double>(m, rng);
  auto y_n = RandomVec<double>(m, rng);
  auto y_t = RandomVec<double>(n, rng);
  auto y_n_ref = y_n;
  auto y_t_ref = y_t;

  gemv<double>(Transpose::kNo, m, n, 1.3, a.data(), x_n.data(), 0.5,
               y_n.data());
  for (index_t i = 0; i < m; ++i) {
    double sum = 0;
    for (index_t j = 0; j < n; ++j) sum += a[static_cast<std::size_t>(i * n + j)] * x_n[static_cast<std::size_t>(j)];
    y_n_ref[static_cast<std::size_t>(i)] = 1.3 * sum + 0.5 * y_n_ref[static_cast<std::size_t>(i)];
  }
  for (index_t i = 0; i < m; ++i) {
    EXPECT_NEAR(y_n[static_cast<std::size_t>(i)], y_n_ref[static_cast<std::size_t>(i)], 1e-10);
  }

  gemv<double>(Transpose::kTrans, m, n, 0.7, a.data(), x_t.data(), 1.0,
               y_t.data());
  for (index_t j = 0; j < n; ++j) {
    double sum = 0;
    for (index_t i = 0; i < m; ++i) sum += a[static_cast<std::size_t>(i * n + j)] * x_t[static_cast<std::size_t>(i)];
    y_t_ref[static_cast<std::size_t>(j)] += 0.7 * sum;
  }
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(y_t[static_cast<std::size_t>(j)], y_t_ref[static_cast<std::size_t>(j)], 1e-10);
  }
}

TEST_P(GemvAgainstNaive, GerMatchesOuterProduct) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 13));
  const auto x = RandomVec<double>(m, rng);
  const auto y = RandomVec<double>(n, rng);
  auto a = RandomVec<double>(m * n, rng);
  auto a_ref = a;
  ger<double>(m, n, -0.4, x.data(), y.data(), a.data());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a_ref[static_cast<std::size_t>(i * n + j)] +=
          -0.4 * x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(j)];
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], a_ref[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemvAgainstNaive,
                         ::testing::Combine(::testing::Values(1, 7, 64),
                                            ::testing::Values(1, 9, 50)),
                         [](const auto& tpi) {
                           std::string name = "m";
                           name += std::to_string(std::get<0>(tpi.param));
                           name += 'n';
                           name += std::to_string(std::get<1>(tpi.param));
                           return name;
                         });

// ---- randomized stress sweep over the packed engine's edge cases -----------
//
// Degenerate shapes around the register tile (MR/NR plus odd tails), all
// four transpose combos, alpha/beta in {0, 1, -0.5}, float and double, all
// validated against the kept naive reference kernel. k crosses kKC so the
// multi-panel beta handling (user beta on the first KC panel only) is
// exercised, and the shape mix covers both the packed and the small path.
template <typename Dtype>
class GemmStress : public ::testing::Test {};

using StressTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(GemmStress, StressTypes);

TYPED_TEST(GemmStress, RandomizedSweepMatchesNaiveReference) {
  using Dtype = TypeParam;
  // The tile this process runs (CGDNN_ISA / cpuid), so every ISA's edge
  // stores are swept when the suite runs under each ISA.
  const index_t MR = ActiveGemmTile<Dtype>().mr;
  const index_t NR = ActiveGemmTile<Dtype>().nr;
  constexpr index_t KC = GemmBlocking<Dtype>::kKC;
  const std::vector<index_t> ms = {1, MR - 1, MR, MR + 1, 2 * MR + 1};
  const std::vector<index_t> ns = {1, NR - 1, NR, NR + 1, 3 * NR + 3};
  const std::vector<index_t> ks = {1, MR + 3, KC + 1};
  const std::vector<Dtype> coeffs = {Dtype(0), Dtype(1), Dtype(-0.5)};
  Rng rng(2024);
  for (const index_t m : ms) {
    for (const index_t n : ns) {
      for (const index_t k : ks) {
        // Tolerance: the packed engine and the reference associate the
        // k-sum differently; the error grows with k.
        const double tol =
            (std::is_same_v<Dtype, float> ? 1e-5 : 1e-13) *
            static_cast<double>(k);
        for (int combo = 0; combo < 4; ++combo) {
          const Transpose ta = combo & 1 ? Transpose::kTrans : Transpose::kNo;
          const Transpose tb = combo & 2 ? Transpose::kTrans : Transpose::kNo;
          const auto a = RandomVec<Dtype>(m * k, rng);
          const auto b = RandomVec<Dtype>(k * n, rng);
          const auto c0 = RandomVec<Dtype>(m * n, rng);
          for (const Dtype alpha : coeffs) {
            for (const Dtype beta : coeffs) {
              auto c = c0;
              auto c_ref = c0;
              gemm<Dtype>(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                          c.data());
              NaiveGemm<Dtype>(ta, tb, m, n, k, alpha, a.data(), b.data(),
                               beta, c_ref.data());
              for (index_t i = 0; i < m * n; ++i) {
                ASSERT_NEAR(c[static_cast<std::size_t>(i)],
                            c_ref[static_cast<std::size_t>(i)], tol)
                    << "m=" << m << " n=" << n << " k=" << k << " combo="
                    << combo << " alpha=" << alpha << " beta=" << beta
                    << " element " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, PackScratchIsPerThreadAndBounded) {
  // A packed GEMM reserves the (constant-size) pack buffers once; repeated
  // calls must not grow the thread's scratch arena.
  const index_t m = 16, n = 64, k = 300;  // packed path: n*k >= kGemmPackMinWork
  Rng rng(7);
  const auto a = RandomVec<float>(m * k, rng);
  const auto b = RandomVec<float>(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  gemm<float>(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, a.data(),
              b.data(), 0.0f, c.data());
  const std::size_t after_first = gemm_pack_scratch_bytes();
  EXPECT_GT(after_first, 0u);
  for (int rep = 0; rep < 8; ++rep) {
    gemm<float>(Transpose::kNo, Transpose::kNo, m, n, k, 1.0f, a.data(),
                b.data(), 0.0f, c.data());
  }
  EXPECT_EQ(gemm_pack_scratch_bytes(), after_first)
      << "pack scratch must be reused, not re-grown, across calls";
}

TEST(Gemm, RowPartitionedCallsMatchFullCallBitExactly) {
  // The coarse-grain inner-product path computes a GEMM in per-thread row
  // chunks; every row must come out bit-identical to the full-batch call
  // regardless of where the chunk boundaries fall (this pins down the
  // m-independence of the path predicate and of the kernels themselves).
  const index_t m = 37, n = 64, k = 300, chunk = 5;
  Rng rng(11);
  const auto a = RandomVec<float>(m * k, rng);
  const auto b = RandomVec<float>(k * n, rng);
  std::vector<float> c_full(static_cast<std::size_t>(m * n), 0.0f);
  auto c_chunked = c_full;
  gemm<float>(Transpose::kNo, Transpose::kTrans, m, n, k, 1.0f, a.data(),
              b.data(), 0.0f, c_full.data());
  for (index_t i0 = 0; i0 < m; i0 += chunk) {
    const index_t rows = std::min(chunk, m - i0);
    gemm<float>(Transpose::kNo, Transpose::kTrans, rows, n, k, 1.0f,
                a.data() + i0 * k, b.data(), 0.0f, c_chunked.data() + i0 * n);
  }
  EXPECT_EQ(c_full, c_chunked);
}

TEST(Gemm, RowPartitionedBetaMergeMatchesFullCall) {
  // Same as above through the general-beta store (beta not 0 or 1) and
  // with the first chunk split at an odd row, so rows that sit in a full
  // register tile of the full call land in edge tiles of the chunked one.
  const index_t m = 29, n = 3 * ActiveGemmTile<float>().nr + 5, k = 260;
  Rng rng(13);
  const auto a = RandomVec<float>(m * k, rng);
  const auto b = RandomVec<float>(k * n, rng);
  const auto c0 = RandomVec<float>(m * n, rng);
  auto c_full = c0;
  auto c_chunked = c0;
  gemm<float>(Transpose::kTrans, Transpose::kNo, m, n, k, 0.75f, a.data(),
              b.data(), -0.5f, c_full.data());
  // op(A) = a^T: a chunk of rows of op(A) is a column block of a, so
  // gather it into its own k x rows matrix first.
  const std::vector<index_t> bounds = {0, 3, 10, 17, 24, m};
  for (std::size_t chunk = 0; chunk + 1 < bounds.size(); ++chunk) {
    const index_t i0 = bounds[chunk];
    const index_t rows = bounds[chunk + 1] - i0;
    std::vector<float> at(static_cast<std::size_t>(k * rows));
    for (index_t kk = 0; kk < k; ++kk) {
      for (index_t i = 0; i < rows; ++i) {
        at[static_cast<std::size_t>(kk * rows + i)] =
            a[static_cast<std::size_t>(kk * m + i0 + i)];
      }
    }
    gemm<float>(Transpose::kTrans, Transpose::kNo, rows, n, k, 0.75f,
                at.data(), b.data(), -0.5f, c_chunked.data() + i0 * n);
  }
  EXPECT_EQ(c_full, c_chunked);
}

TEST(GemmIsa, ActiveTileIsTheActiveIsasTile) {
  const GemmTileShape tile = ActiveGemmTile<float>();
  EXPECT_EQ(tile.mr, FloatGemmTile(ActiveGemmIsa()).mr);
  EXPECT_EQ(tile.nr, FloatGemmTile(ActiveGemmIsa()).nr);
  EXPECT_EQ(ActiveGemmTile<double>().mr, 4);
  EXPECT_EQ(ActiveGemmTile<double>().nr, 4);
}

TEST(GemmIsa, OverrideSelectsNamedIsaUpToTheHosts) {
  for (const GemmIsa isa :
       {GemmIsa::kBaseline, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    EXPECT_EQ(ParseGemmIsa(GemmIsaName(isa)), isa);
    EXPECT_EQ(ResolveGemmIsa(GemmIsaName(isa), GemmIsa::kAvx512), isa);
    EXPECT_EQ(ResolveGemmIsa(nullptr, isa), isa);
    EXPECT_EQ(ResolveGemmIsa("", isa), isa);
  }
  EXPECT_EQ(ResolveGemmIsa("baseline", GemmIsa::kBaseline),
            GemmIsa::kBaseline);
}

TEST(GemmIsa, BogusOverrideRaisesError) {
  EXPECT_THROW(ParseGemmIsa("bogus"), Error);
  EXPECT_THROW(ResolveGemmIsa("bogus", HostGemmIsa()), Error);
  EXPECT_THROW(ResolveGemmIsa("AVX512", GemmIsa::kAvx512), Error);
}

TEST(GemmIsa, IsaTheHostLacksRaisesErrorInsteadOfFaulting) {
  EXPECT_THROW(ResolveGemmIsa("avx512", GemmIsa::kAvx2), Error);
  EXPECT_THROW(ResolveGemmIsa("avx2", GemmIsa::kBaseline), Error);
}

TEST(Gemm, LargeKExercisesBlocking) {
  // K beyond the kernel's 256-wide block: validates the k-blocked NN path.
  constexpr index_t m = 4, n = 6, k = 1000;
  Rng rng(99);
  auto a = RandomVec<double>(m * k, rng);
  auto b = RandomVec<double>(k * n, rng);
  std::vector<double> c(m * n, 0.0), c_ref(m * n, 0.0);
  gemm<double>(Transpose::kNo, Transpose::kNo, m, n, k, 1.0, a.data(),
               b.data(), 0.0, c.data());
  NaiveGemm<double>(Transpose::kNo, Transpose::kNo, m, n, k, 1.0, a.data(),
                    b.data(), 0.0, c_ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-9);
  }
}

}  // namespace
}  // namespace cgdnn::blas
