// The parallel-region helper (parallel/region.hpp): the static partition it
// hands out, exception capture (a throwing body surfaces as cgdnn::Error at
// the caller, never std::terminate, and leaves the next region healthy), the
// merge it skips after a throw, the layer phase it reports into, and an
// armed write-set sweep over every layer type that parallelizes through it.
#include "cgdnn/parallel/region.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cgdnn/blackbox/blackbox.hpp"
#include "cgdnn/check/write_set.hpp"
#include "cgdnn/core/rng.hpp"
#include "cgdnn/layers/layer.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::parallel {
namespace {

ParallelConfig Threads(int threads) {
  ParallelConfig cfg;
  cfg.num_threads = threads;
  cfg.merge = GradientMerge::kOrdered;
  return cfg;
}

const int kThreadCounts[] = {1, 2, 5, 8};

TEST(ParallelRegion, RequiresAnOpenLayerPhase) {
  ASSERT_EQ(LayerPhaseScope::Current(), nullptr);
  Parallel::Scope scope(Threads(2));
  std::atomic<int> bodies{0};
  EXPECT_THROW(ForEachChunk(8, [&](const Chunk&) { ++bodies; }), Error);
  EXPECT_EQ(bodies.load(), 0);
}

TEST(ParallelRegion, ChunksTileTheRangeAsStaticChunk) {
  for (const int threads : kThreadCounts) {
    Parallel::Scope scope(Threads(threads));
    LayerPhaseScope phase("tile.region", LayerPhase::kForward);
    for (const index_t total : {0, 1, 7, 64, 101}) {
      std::vector<Chunk> seen(static_cast<std::size_t>(threads));
      ForEachChunk(total, [&](const Chunk& c) {
        seen[static_cast<std::size_t>(c.tid)] = c;
      });
      index_t next = 0;
      for (int tid = 0; tid < threads; ++tid) {
        const Chunk& c = seen[static_cast<std::size_t>(tid)];
        const IterRange want = StaticChunk(total, threads, tid);
        EXPECT_EQ(c.tid, tid);
        EXPECT_EQ(c.team, threads);
        EXPECT_EQ(c.begin, want.begin) << "T=" << threads << " tid=" << tid;
        EXPECT_EQ(c.end, want.end) << "T=" << threads << " tid=" << tid;
        EXPECT_EQ(c.begin, next) << "chunks must be contiguous";
        next = c.end;
      }
      EXPECT_EQ(next, total) << "chunks must cover [0, total)";
    }
  }
}

TEST(ParallelRegion, PlainBodyExceptionSurfacesAsError) {
  for (const int threads : kThreadCounts) {
    Parallel::Scope scope(Threads(threads));
    const int thrower = threads - 1;
    {
      LayerPhaseScope phase("throw.region", LayerPhase::kForward);
      EXPECT_THROW(ForEachChunk(40,
                                [&](const Chunk& c) {
                                  CGDNN_CHECK(c.tid != thrower)
                                      << "injected failure";
                                }),
                   Error)
          << "T=" << threads;
    }
    // A non-cgdnn exception is rethrown as a cgdnn::Error naming the phase.
    LayerPhaseScope phase("foreign.region", LayerPhase::kForward);
    try {
      ForEachChunk(40, [&](const Chunk& c) {
        if (c.tid == thrower) throw std::runtime_error("foreign failure");
      });
      ADD_FAILURE() << "no exception at T=" << threads;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("foreign.region"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("foreign failure"),
                std::string::npos);
    }
  }
}

TEST(ParallelRegion, LowestThreadIdExceptionWins) {
  for (const int threads : kThreadCounts) {
    Parallel::Scope scope(Threads(threads));
    LayerPhaseScope phase("many.region", LayerPhase::kForward);
    try {
      ForEachChunk(40, [&](const Chunk& c) {
        throw Error(__FILE__, __LINE__, "tid " + std::to_string(c.tid));
      });
      ADD_FAILURE() << "no exception at T=" << threads;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("tid 0"), std::string::npos)
          << e.what();
    }
  }
}

// Sums 1 per item into dest[k] for every k through the privatized form;
// `thrower` (if >= 0) throws before touching its private sum.
void CountItems(index_t total, std::vector<double>& dest, int thrower) {
  LayerPhaseScope phase("private.region", LayerPhase::kBackward);
  ForEachChunkPrivate<double>(
      total, 3,
      {{dest.data(), static_cast<index_t>(dest.size())}, {nullptr, 9}},
      [&](const Chunk& c, double* scratch, double* const* priv) {
        ASSERT_NE(scratch, nullptr);
        ASSERT_EQ(priv[1], nullptr) << "a null destination gets no buffer";
        CGDNN_CHECK(c.tid != thrower) << "injected failure";
        for (index_t n = c.begin; n < c.end; ++n) {
          for (std::size_t k = 0; k < dest.size(); ++k) priv[0][k] += 1.0;
        }
      });
}

TEST(ParallelRegion, PrivateBodyExceptionLeavesDestinationUnmerged) {
  for (const int threads : kThreadCounts) {
    Parallel::Scope scope(Threads(threads));
    std::vector<double> dest(5, 0.25);
    EXPECT_THROW(CountItems(37, dest, threads - 1), Error) << "T=" << threads;
    for (const double v : dest) {
      EXPECT_EQ(v, 0.25) << "a failed region must not merge (T=" << threads
                         << ")";
    }
    // The pool and the team stay usable: the next region merges normally.
    CountItems(37, dest, -1);
    for (const double v : dest) EXPECT_EQ(v, 37.25) << "T=" << threads;
    EXPECT_GE(PrivatizationPool::Get().configured_threads(), threads);
  }
}

TEST(ParallelRegion, SerialMergeRejectedBeforeTheRegionOpens) {
  ParallelConfig cfg = Threads(4);
  cfg.merge = GradientMerge::kSerial;
  Parallel::Scope scope(cfg);
  LayerPhaseScope phase("serial.region", LayerPhase::kBackward);
  std::atomic<int> bodies{0};
  std::vector<float> dest(3, 0.0f);
  EXPECT_THROW(ForEachChunkPrivate<float>(
                   8, 0, {{dest.data(), 3}},
                   [&](const Chunk&, float*, float* const*) { ++bodies; }),
               Error);
  EXPECT_EQ(bodies.load(), 0);
}

TEST(ParallelRegion, ArmedCheckerDoesNotMaskBodyException) {
  check::ScopedEnable armed(true);
  Parallel::Scope scope(Threads(5));
  LayerPhaseScope phase("armed.region", LayerPhase::kForward);
  std::vector<float> y(50, 0.0f);
  EXPECT_THROW(ForEachChunk(50,
                            [&](const Chunk& c) {
                              for (index_t i = c.begin; i < c.end; ++i) {
                                y[static_cast<std::size_t>(i)] = 1.0f;
                              }
                              c.Wrote(y.data(), "y", c.begin, c.end);
                              CGDNN_CHECK(c.tid != 2) << "injected failure";
                            }),
               Error);
  EXPECT_EQ(check::WriteSetChecker::Current(), nullptr);
}

#if CGDNN_BLACKBOX_ENABLED
std::atomic<int> g_stalls{0};
void OnStall(const char* /*site*/, std::uint64_t /*age_ns*/) { ++g_stalls; }

TEST(ParallelRegion, ThrowingRegionsLeaveNoOpenBlackboxPosition) {
  if (!blackbox::Enabled()) GTEST_SKIP() << "flight recorder disabled";
  for (const int threads : kThreadCounts) {
    Parallel::Scope scope(Threads(threads));
    {
      LayerPhaseScope phase("bb.region", LayerPhase::kForward);
      EXPECT_THROW(ForEachChunk(16,
                                [](const Chunk& c) {
                                  CGDNN_CHECK(c.tid != 0) << "injected";
                                }),
                   Error);
    }
    std::vector<double> dest(2, 0.0);
    EXPECT_THROW(CountItems(16, dest, 0), Error);
  }
  // Any phase/chunk/merge position left open by the unwinding would now
  // be older than the deadline and trip the watchdog.
  g_stalls = 0;
  blackbox::WatchdogOptions options;
  options.deadline_ns = 50'000'000ull;
  options.abort_on_stall = false;
  options.on_stall = &OnStall;
  blackbox::StartWatchdog(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  blackbox::StopWatchdog();
  EXPECT_EQ(g_stalls.load(), 0);
}
#endif

// --------------------------------------------------------- armed layer sweep

struct LayerCase {
  std::string type;
  std::vector<std::vector<index_t>> bottoms;
  bool backward = true;
  std::function<void(proto::LayerParameter&)> configure;
};

std::vector<LayerCase> SweepCases() {
  const std::vector<index_t> nchw{7, 3, 5, 4};  // batch 7: no T divides it
  std::vector<LayerCase> cases = {
      {"ReLU", {nchw}, true, nullptr},
      {"Sigmoid", {nchw}, true, nullptr},
      {"TanH", {nchw}, true, nullptr},
      {"Dropout", {nchw}, true, nullptr},
      {"ELU", {nchw}, true, nullptr},
      {"AbsVal", {nchw}, true, nullptr},
      {"Softmax", {nchw}, true, nullptr},
      {"SoftmaxWithLoss", {{7, 6}, {7}}, true, nullptr},
      {"LRN", {nchw}, true,
       [](proto::LayerParameter& p) { p.lrn_param.local_size = 3; }},
      {"ArgMax", {{7, 6}}, false, nullptr},
      {"Scale", {nchw}, true, nullptr},
      {"Bias", {nchw}, true, nullptr},
      {"Pooling", {nchw}, true,
       [](proto::LayerParameter& p) {
         p.pooling_param.kernel_size = 2;
         p.pooling_param.stride = 2;
       }},
      {"BatchNorm", {nchw}, true, nullptr},
      {"Convolution", {nchw}, true,
       [](proto::LayerParameter& p) {
         p.convolution_param.num_output = 4;
         p.convolution_param.kernel_h = p.convolution_param.kernel_w = 3;
         p.convolution_param.pad_h = p.convolution_param.pad_w = 1;
       }},
      {"InnerProduct", {nchw}, true,
       [](proto::LayerParameter& p) {
         p.inner_product_param.num_output = 5;
       }},
  };
  return cases;
}

struct SweepResult {
  std::vector<float> top_data;
  std::vector<float> bottom_diff;
  std::size_t forward_spans = 0;
  std::size_t backward_spans = 0;
};

SweepResult RunCase(const LayerCase& lc, int threads, bool coalesce) {
  ParallelConfig cfg = Threads(threads);
  cfg.mode = threads > 1 ? ExecutionMode::kCoarseGrain : ExecutionMode::kSerial;
  cfg.coalesce = coalesce;
  Parallel::Scope scope(cfg);
  check::ScopedEnable armed(true);

  proto::LayerParameter p;
  p.name = "sweep";
  p.type = lc.type;
  if (lc.configure) lc.configure(p);
  SeedGlobalRng(99);
  std::shared_ptr<Layer<float>> layer = LayerRegistry<float>::Get().Create(p);

  std::vector<std::unique_ptr<Blob<float>>> owned;
  std::vector<Blob<float>*> bottom;
  Rng rng(5);
  for (std::size_t b = 0; b < lc.bottoms.size(); ++b) {
    owned.push_back(std::make_unique<Blob<float>>(lc.bottoms[b]));
    Blob<float>* blob = owned.back().get();
    float* d = blob->mutable_cpu_data();
    for (index_t i = 0; i < blob->count(); ++i) {
      // The second bottom of a loss layer holds labels.
      d[i] = b == 0 ? static_cast<float>(rng.Uniform(-1.0, 1.0))
                    : static_cast<float>(i % lc.bottoms[0].back());
    }
    bottom.push_back(blob);
  }
  Blob<float> top_blob;
  std::vector<Blob<float>*> top{&top_blob};
  layer->SetUp(bottom, top);

  auto& tracer = trace::Tracer::Get();
  tracer.Clear();
  tracer.Start();
  SweepResult r;
  EXPECT_NO_THROW(layer->Forward(bottom, top)) << lc.type << " T=" << threads;
  if (lc.backward) {
    float* seed = top_blob.mutable_cpu_diff();
    for (index_t i = 0; i < top_blob.count(); ++i) {
      seed[i] = 0.01f * static_cast<float>(i % 13) - 0.05f;
    }
    std::vector<bool> down(bottom.size(), false);
    down[0] = true;
    EXPECT_NO_THROW(layer->Backward(top, down, bottom))
        << lc.type << " T=" << threads;
    r.bottom_diff.assign(bottom[0]->cpu_diff(),
                         bottom[0]->cpu_diff() + bottom[0]->count());
  }
  tracer.Stop();
  for (const trace::TraceEvent& e : tracer.Events()) {
    if (std::string(e.category) != "region") continue;
    if (e.name == "sweep.forward") ++r.forward_spans;
    if (e.name == "sweep.backward") ++r.backward_spans;
  }
  tracer.Clear();
  r.top_data.assign(top_blob.cpu_data(),
                    top_blob.cpu_data() + top_blob.count());
  return r;
}

// Every layer that parallelizes runs through the helper: at every thread
// count it is write-set clean under the armed checker, bit-identical to the
// serial reference, and shows one region span per thread per pass.
TEST(ParallelRegion, ArmedLayerSweepCoversEveryParallelLayer) {
  for (const LayerCase& lc : SweepCases()) {
    const SweepResult serial = RunCase(lc, 1, true);
    for (const bool coalesce : {true, false}) {
      for (const int threads : {2, 5, 8}) {
        SCOPED_TRACE(lc.type + " T=" + std::to_string(threads) +
                     (coalesce ? "" : " uncoalesced"));
        const SweepResult par = RunCase(lc, threads, coalesce);
        EXPECT_EQ(par.top_data, serial.top_data);
        EXPECT_EQ(par.bottom_diff, serial.bottom_diff);
        EXPECT_EQ(par.forward_spans, static_cast<std::size_t>(threads));
        if (lc.backward) {
          EXPECT_EQ(par.backward_spans, static_cast<std::size_t>(threads));
        }
      }
    }
  }
}

}  // namespace
}  // namespace cgdnn::parallel
