// Request-scoped tracing + live-stats tests (docs/observability.md).
//
// Covers the observability layer end to end: the sliding-window
// histogram's quantile accuracy and rotation (the windowed-vs-exact 5%
// gate rests on it), per-request stage durations telescoping to the
// total, Chrome-trace flow events connecting a request's submit side to
// its worker-side span across threads, the K-slowest exemplar ring, the
// tail classifier, and snapshot-file atomicity under a concurrent reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/plan/json_lite.hpp"
#include "cgdnn/serve/loadgen.hpp"
#include "cgdnn/serve/server.hpp"
#include "cgdnn/serve/stats.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn {
namespace {

proto::NetParameter SmallLeNet() {
  models::ModelOptions opts;
  opts.batch_size = 8;
  opts.num_samples = 32;
  return models::LeNet(opts);
}

parallel::ParallelConfig SerialIntraOp() {
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kSerial;
  cfg.num_threads = 1;
  return cfg;
}

constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;

// ----------------------------------------------------- sliding histogram

// The log-scale sketch (gamma = 1.04) promises <= ~2% relative quantile
// error; the serve_stats_check drill's 5% windowed-vs-exact gate rests on
// this. Compare against the load generator's exact percentile over a
// latency-shaped sample set.
TEST(ServeStatsTest, SlidingHistogramQuantilesTrackExact) {
  trace::SlidingHistogram h(60);
  const std::uint64_t now = 5000 * kNsPerSec;
  std::vector<double> exact;
  Rng rng(17, 3);
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over [100us, 10ms] — three decades of tail, like a real
    // latency distribution.
    const double v = 100.0 * std::pow(100.0, rng.Uniform(0.0, 1.0));
    exact.push_back(v);
    h.Observe(v, now);
  }
  const auto snap = h.Read(now);
  EXPECT_EQ(snap.count, 2000u);
  std::sort(exact.begin(), exact.end());
  for (const auto& [q, got] : {std::pair<double, double>{0.50, snap.p50},
                               {0.90, snap.p90},
                               {0.99, snap.p99}}) {
    const double want = serve::Percentile(exact, q);
    EXPECT_NEAR(got, want, 0.03 * want)
        << "p" << 100 * q << " off by more than 3%";
  }
  EXPECT_GE(snap.min, 100.0);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p99);
  EXPECT_LE(snap.p99, snap.max * 1.0001);
}

TEST(ServeStatsTest, SlidingHistogramRotatesAndRecyclesSlots) {
  trace::SlidingHistogram h(5);
  const std::uint64_t base = 1000 * kNsPerSec;
  h.Observe(100.0, base);
  EXPECT_EQ(h.Read(base).count, 1u);
  // Still visible at the last covered second, gone one past the window.
  EXPECT_EQ(h.Read(base + 4 * kNsPerSec).count, 1u);
  EXPECT_EQ(h.Read(base + 5 * kNsPerSec).count, 0u);

  // Second 1005 maps to the same ring slot as 1000 (5-slot ring): the
  // stale slot must be recycled, not merged.
  h.Observe(200.0, base + 5 * kNsPerSec);
  const auto snap = h.Read(base + 5 * kNsPerSec);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 200.0);
  EXPECT_DOUBLE_EQ(snap.max, 200.0);

  // Fill every second of the window; all five slots merge.
  for (int s = 1; s <= 5; ++s) {
    h.Observe(300.0, base + static_cast<std::uint64_t>(5 + s) * kNsPerSec);
  }
  EXPECT_EQ(h.Read(base + 10 * kNsPerSec).count, 5u);
}

TEST(ServeStatsTest, SlidingCounterExpires) {
  trace::SlidingCounter c(5);
  const std::uint64_t base = 1000 * kNsPerSec;
  c.Add(3, base);
  EXPECT_EQ(c.Sum(base), 3u);
  c.Add(2, base + 2 * kNsPerSec);
  EXPECT_EQ(c.Sum(base + 2 * kNsPerSec), 5u);
  EXPECT_EQ(c.Sum(base + 6 * kNsPerSec), 2u);  // first slot aged out
  EXPECT_EQ(c.Sum(base + 7 * kNsPerSec), 0u);
}

// ----------------------------------------------------- stage attribution

// Every OK response's stage durations must telescope back to its total:
// queue_wait + batch_form + compute + complete == total (shared ns stamps,
// so the identity is exact up to double rounding).
TEST(ServeStatsTest, StageDurationsTelescopeToTotal) {
  // Two workers require serial intra-op forwards (Server::Start contract);
  // the library default would be one thread per core.
  parallel::Parallel::Scope serial_intra_op(SerialIntraOp());
  SeedGlobalRng(7);
  data::ClearDatasetCache();
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.batch_deadline_us = 500;
  opts.default_deadline_ms = 10'000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();

  std::mutex mu;
  std::vector<serve::Response> responses;
  std::atomic<int> done{0};
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    auto req = std::make_shared<serve::Request>();
    req->input.assign(static_cast<std::size_t>(server.sample_size()), 0.25f);
    req->done = [&](serve::Response&& r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(r));
      }
      done.fetch_add(1);
    };
    server.Submit(std::move(req));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (done.load() < kRequests &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_EQ(done.load(), kRequests);

  std::set<std::uint64_t> ids;
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_GE(r.trace_id, 1u);
    ids.insert(r.trace_id);
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, opts.workers);
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GE(r.queue_wait_us, 0.0);
    EXPECT_GE(r.batch_form_us, 0.0);
    EXPECT_GT(r.compute_us, 0.0);
    EXPECT_GE(r.complete_us, 0.0);
    const double stage_sum =
        r.queue_wait_us + r.batch_form_us + r.compute_us + r.complete_us;
    EXPECT_NEAR(stage_sum, r.total_us, 1e-3)
        << "stages do not telescope for trace_id " << r.trace_id;
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests))
      << "trace ids must be unique per request";

  // The exporter saw the same completions: windowed view agrees with the
  // server's own counters, and the tail is classified.
  const serve::StatsSnapshot live = server.live_stats();
  EXPECT_EQ(live.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_NE(live.p99_class, "idle");
  EXPECT_FALSE(live.slowest.empty());
  EXPECT_LE(live.slowest.front().total_us, live.p99_us * 1.05 + 1.0);
}

// -------------------------------------------------------- trace flows

// With the tracer armed, every admitted request leaves a flow start ('s')
// on the submitting thread and a flow finish ('f', same id) inside the
// worker-side request span — the Chrome-trace form Perfetto renders as a
// cross-thread arrow. Parse the real WriteChromeTrace output.
TEST(ServeStatsTest, FlowEventsConnectSubmitToWorkerAcrossThreads) {
  // Two workers require serial intra-op forwards (Server::Start contract);
  // the library default would be one thread per core.
  parallel::Parallel::Scope serial_intra_op(SerialIntraOp());
  auto& tracer = trace::Tracer::Get();
  tracer.Clear();
  tracer.Start();

  SeedGlobalRng(7);
  data::ClearDatasetCache();
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.default_deadline_ms = 10'000;
  opts.planned = false;
  serve::Server server(SmallLeNet(), opts);
  server.Start();

  std::atomic<int> done{0};
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    auto req = std::make_shared<serve::Request>();
    req->input.assign(static_cast<std::size_t>(server.sample_size()), 0.25f);
    req->done = [&done](serve::Response&&) { done.fetch_add(1); };
    server.Submit(std::move(req));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (done.load() < kRequests &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  tracer.Stop();
  ASSERT_EQ(done.load(), kRequests);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  tracer.Clear();

  // WriteChromeTrace emits the plain event-array form (viewers expect a
  // top-level '['), with provenance as a ph:"M" metadata event.
  plan::JsonValue root;
  ASSERT_TRUE(plan::JsonValue::Parse(os.str(), &root))
      << "WriteChromeTrace emitted unparseable JSON";
  ASSERT_TRUE(root.is_array());

  std::map<std::uint64_t, index_t> start_tid, finish_tid;
  int request_spans = 0, stage_spans = 0;
  for (const plan::JsonValue& ev : root.array()) {
    const std::string name = ev.GetString("name");
    const std::string ph = ev.GetString("ph");
    if (name == "serve.req" && ph == "s") {
      start_tid[static_cast<std::uint64_t>(ev.GetInt("id"))] =
          ev.GetInt("tid");
    } else if (name == "serve.req" && ph == "f") {
      finish_tid[static_cast<std::uint64_t>(ev.GetInt("id"))] =
          ev.GetInt("tid");
      EXPECT_EQ(ev.GetString("bp"), "e")
          << "flow finish must bind to the enclosing slice";
    } else if (name == "serve.request" && ph == "X") {
      ++request_spans;
      const plan::JsonValue* args = ev.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->GetNumber("trace_id"), 1.0);
      EXPECT_GE(args->GetNumber("compute_us"), 0.0);
    } else if (name.rfind("serve.stage.", 0) == 0 && ph == "X") {
      ++stage_spans;
    }
  }
  EXPECT_EQ(start_tid.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(finish_tid.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(request_spans, kRequests);
  EXPECT_EQ(stage_spans, 4 * kRequests);  // four tiled children per request
  int cross_thread = 0;
  for (const auto& [id, tid] : start_tid) {
    const auto it = finish_tid.find(id);
    ASSERT_NE(it, finish_tid.end()) << "flow id " << id << " never finished";
    if (it->second != tid) ++cross_thread;
  }
  // Submissions come from this thread, completions from worker threads:
  // every pair must cross.
  EXPECT_EQ(cross_thread, kRequests);
}

// ----------------------------------------------------------- exemplars

serve::Response OkResponse(std::uint64_t id, int worker, double total_us,
                           double queue_wait_us, double compute_us) {
  serve::Response r;
  r.status = serve::Status::kOk;
  r.trace_id = id;
  r.worker = worker;
  r.batch_size = 1;
  r.total_us = total_us;
  r.queue_wait_us = queue_wait_us;
  r.compute_us = compute_us;
  r.batch_form_us = 0;
  r.complete_us = total_us - queue_wait_us - compute_us;
  return r;
}

TEST(ServeStatsTest, ExemplarsKeepTheKSlowest) {
  serve::StatsOptions opts;
  opts.window_s = 60;
  opts.exemplars = 3;
  serve::StatsExporter exporter(opts);
  for (int i = 1; i <= 10; ++i) {
    exporter.RecordCompletion(
        OkResponse(static_cast<std::uint64_t>(i), 0, 100.0 * i, 10.0, 80.0));
  }
  const serve::StatsSnapshot snap = exporter.Snapshot(MonotonicNowNs());
  EXPECT_EQ(snap.ok, 10u);
  ASSERT_EQ(snap.slowest.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.slowest[0].total_us, 1000.0);
  EXPECT_DOUBLE_EQ(snap.slowest[1].total_us, 900.0);
  EXPECT_DOUBLE_EQ(snap.slowest[2].total_us, 800.0);
  EXPECT_EQ(snap.slowest[0].trace_id, 10u);
}

TEST(ServeStatsTest, TailClassifierBlamesTheDominantStage) {
  // Queue-dominant slow requests -> queue_bound.
  {
    serve::StatsOptions opts;
    opts.window_s = 60;
    opts.exemplars = 4;
    serve::StatsExporter exporter(opts);
    exporter.RecordBatch(0, 4);
    exporter.RecordBatch(1, 4);
    for (int i = 1; i <= 4; ++i) {
      exporter.RecordCompletion(OkResponse(
          static_cast<std::uint64_t>(i), i % 2, 1000.0, 900.0, 80.0));
    }
    const auto snap = exporter.Snapshot(MonotonicNowNs());
    EXPECT_EQ(snap.p99_class, "queue_bound");
  }
  // Compute-dominant, concentrated on one worker of an active pool ->
  // straggler_bound (the per-request Das et al. straggler effect).
  {
    serve::StatsOptions opts;
    opts.window_s = 60;
    opts.exemplars = 4;
    serve::StatsExporter exporter(opts);
    exporter.RecordBatch(0, 4);
    exporter.RecordBatch(1, 4);
    for (int i = 1; i <= 4; ++i) {
      exporter.RecordCompletion(OkResponse(
          static_cast<std::uint64_t>(i), /*worker=*/1, 1000.0, 50.0, 900.0));
    }
    const auto snap = exporter.Snapshot(MonotonicNowNs());
    EXPECT_EQ(snap.p99_class, "straggler_bound");
    EXPECT_DOUBLE_EQ(snap.straggler_frac, 1.0);
  }
  // Compute-dominant but spread across the pool -> compute_bound.
  {
    serve::StatsOptions opts;
    opts.window_s = 60;
    opts.exemplars = 4;
    serve::StatsExporter exporter(opts);
    exporter.RecordBatch(0, 4);
    exporter.RecordBatch(1, 4);
    for (int i = 1; i <= 4; ++i) {
      exporter.RecordCompletion(OkResponse(
          static_cast<std::uint64_t>(i), i % 2, 1000.0, 50.0, 900.0));
    }
    const auto snap = exporter.Snapshot(MonotonicNowNs());
    EXPECT_EQ(snap.p99_class, "compute_bound");
    EXPECT_DOUBLE_EQ(snap.straggler_frac, 0.5);
  }
  // Empty window -> idle.
  {
    serve::StatsOptions opts;
    opts.window_s = 60;
    serve::StatsExporter exporter(opts);
    EXPECT_EQ(exporter.Snapshot(MonotonicNowNs()).p99_class, "idle");
  }
}

// ------------------------------------------------------ snapshot files

// The publisher replaces the snapshot atomically (tmp + rename): a reader
// polling mid-run must never see a torn or half-written document, and the
// version it parses must never go backwards.
TEST(ServeStatsTest, SnapshotFileIsAtomicUnderConcurrentReader) {
  const std::string path =
      ::testing::TempDir() + "cgdnn_stats_atomic_test.json";
  std::remove(path.c_str());

  serve::StatsOptions opts;
  opts.snapshot_path = path;
  opts.period_ms = 2;
  opts.window_s = 60;
  serve::StatsExporter exporter(opts);
  exporter.Start();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t id = 1;
    while (!stop.load(std::memory_order_acquire)) {
      exporter.RecordCompletion(OkResponse(id++, 0, 500.0, 100.0, 350.0));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  int parsed = 0;
  std::int64_t last_version = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      if (!text.empty()) {
        plan::JsonValue snap;
        ASSERT_TRUE(plan::JsonValue::Parse(text, &snap))
            << "torn snapshot read: " << text.substr(0, 80);
        const std::int64_t version = snap.GetInt("version");
        EXPECT_GE(version, last_version) << "snapshot version went backwards";
        last_version = version;
        ++parsed;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  exporter.Finish();

  EXPECT_GT(parsed, 0) << "reader never saw a published snapshot";
  // Finish() publishes one final snapshot covering the drain.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  plan::JsonValue snap;
  ASSERT_TRUE(plan::JsonValue::Parse(buf.str(), &snap));
  EXPECT_GT(snap.GetInt("version"), 0);
  EXPECT_GT(snap.Find("window")->GetInt("ok"), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cgdnn
