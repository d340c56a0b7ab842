// Flight-recorder unit tests: ring wraparound, dump round-trips (including
// torn final records and empty rings), first-dump-wins, and the hang
// watchdog against an injected stall. The end-to-end drills (real SIGSEGV,
// real watchdog abort, decoder binary) live in tools/crash_dump_check.sh
// and tools/watchdog_check.sh; here we exercise the library API and the
// on-disk format directly.
#include "cgdnn/blackbox/blackbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cgdnn/blackbox/dump_format.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn::blackbox {
namespace {

#if CGDNN_BLACKBOX_ENABLED

/// Minimal dump reader mirroring tools/cgdnn_blackbox's salvage rules:
/// stop (without failing) at any truncation point, drop events that fail
/// the sanity check instead of trusting them.
struct ReadThread {
  ThreadHeader header;
  std::vector<EventRecord> events;
  std::uint64_t skipped = 0;
};

struct ReadDump {
  DumpHeader header;
  std::string meta;
  std::vector<std::string> names;
  std::vector<ReadThread> threads;
  bool truncated = false;
};

bool ReadExact(std::ifstream& in, void* dst, std::size_t size) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
  return static_cast<std::size_t>(in.gcount()) == size;
}

ReadDump ReadDumpFile(const std::string& path) {
  ReadDump dump;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  EXPECT_TRUE(ReadExact(in, &dump.header, sizeof(dump.header)));
  EXPECT_EQ(0, std::memcmp(dump.header.magic, kMagic, sizeof(kMagic)));
  EXPECT_EQ(kFormatVersion, dump.header.version);
  dump.meta.resize(dump.header.meta_bytes);
  if (dump.header.meta_bytes > 0 &&
      !ReadExact(in, dump.meta.data(), dump.header.meta_bytes)) {
    dump.truncated = true;
    return dump;
  }
  for (std::uint32_t i = 0; i < dump.header.name_count; ++i) {
    NameRecord rec;
    if (!ReadExact(in, &rec, sizeof(rec))) {
      dump.truncated = true;
      return dump;
    }
    rec.name[sizeof(rec.name) - 1] = '\0';
    dump.names.emplace_back(rec.name);
  }
  for (std::uint32_t t = 0; t < dump.header.thread_count; ++t) {
    ReadThread thread;
    if (!ReadExact(in, &thread.header, sizeof(thread.header))) {
      dump.truncated = true;
      return dump;
    }
    const std::uint64_t count =
        std::min(thread.header.head, thread.header.capacity);
    for (std::uint64_t i = 0; i < count; ++i) {
      EventRecord ev;
      if (!ReadExact(in, &ev, sizeof(ev))) {
        dump.truncated = true;
        break;
      }
      const std::uint16_t kind = EventKindOf(ev.packed);
      if (kind > 0 && kind < static_cast<std::uint16_t>(EventKind::kMax) &&
          EventNameOf(ev.packed) < dump.names.size()) {
        thread.events.push_back(ev);
      } else {
        ++thread.skipped;
      }
    }
    dump.threads.push_back(std::move(thread));
    if (dump.truncated) break;
  }
  return dump;
}

const std::string* FindName(const ReadDump& dump, const char* name) {
  for (const std::string& n : dump.names) {
    if (n == name) return &n;
  }
  return nullptr;
}

/// Fresh recorder with a known small ring, dumping into a temp file that
/// the fixture removes.
class BlackboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("CGDNN_BLACKBOX_RING", "64", 1);
    ResetForTest();
    dump_path_ = (std::filesystem::temp_directory_path() /
                  ("cgdnn_bbx_test_" +
                   std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".bin"))
                     .string();
    InstallCrashHandlers(dump_path_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(dump_path_, ec);
    ::unsetenv("CGDNN_BLACKBOX_RING");
    ResetForTest();
  }

  std::string dump_path_;
};

TEST_F(BlackboxTest, EnabledByDefaultAndKillSwitchWorks) {
  EXPECT_TRUE(Enabled());
  ::setenv("CGDNN_BLACKBOX", "off", 1);
  ResetForTest();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(DumpNow(DumpReason::kManual));
  ::unsetenv("CGDNN_BLACKBOX");
  ResetForTest();
  EXPECT_TRUE(Enabled());
}

TEST_F(BlackboxTest, DumpRoundTripsEventsAndMeta) {
  Record(EventKind::kSpanBegin, "unit.span", 7, 9);
  Record(EventKind::kSpanEnd, "unit.span", 7, 9);
  BeginSolverIteration(41);
  EndSolverIteration(41, 0.5);
  BeginSolverIteration(42);

  ASSERT_TRUE(DumpNow(DumpReason::kManual));
  const ReadDump dump = ReadDumpFile(dump_path_);
  EXPECT_FALSE(dump.truncated);
  EXPECT_EQ(static_cast<std::uint32_t>(DumpReason::kManual),
            dump.header.reason);
  EXPECT_EQ(42u, dump.header.solver_iter);
  EXPECT_EQ(kNoThread, dump.header.crash_tid);  // not a signal dump
  // The prebuilt meta JSON rides along in every dump.
  EXPECT_NE(dump.meta.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(dump.meta.find("\"hostname\""), std::string::npos);
  ASSERT_NE(FindName(dump, "unit.span"), nullptr);

  ASSERT_FALSE(dump.threads.empty());
  bool saw_span = false, saw_loss = false;
  for (const ReadThread& t : dump.threads) {
    for (const EventRecord& ev : t.events) {
      const auto kind = static_cast<EventKind>(EventKindOf(ev.packed));
      if (kind == EventKind::kSpanBegin &&
          dump.names[EventNameOf(ev.packed)] == "unit.span") {
        saw_span = true;
        EXPECT_EQ(7u, ev.a);
        EXPECT_EQ(9u, ev.b);
      }
      if (kind == EventKind::kSolverIterEnd && ev.a == 41) {
        saw_loss = true;
        double loss;
        std::memcpy(&loss, &ev.b, sizeof(loss));
        EXPECT_DOUBLE_EQ(0.5, loss);
      }
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_loss);
}

TEST_F(BlackboxTest, RingWrapsAndKeepsNewestEvents) {
  const std::uint64_t cap = RingCapacityForTest();
  ASSERT_EQ(64u, cap);  // CGDNN_BLACKBOX_RING from the fixture
  const std::uint64_t total = 3 * cap + 5;
  for (std::uint64_t i = 0; i < total; ++i) {
    Record(EventKind::kSpanBegin, "wrap.span", i);
  }
  ASSERT_TRUE(DumpNow(DumpReason::kManual));
  const ReadDump dump = ReadDumpFile(dump_path_);

  const ReadThread* mine = nullptr;
  for (const ReadThread& t : dump.threads) {
    if (!t.events.empty() &&
        dump.names[EventNameOf(t.events.back().packed)] == "wrap.span") {
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(total, mine->header.head);
  EXPECT_EQ(cap, mine->events.size());  // overwrite-oldest
  // The survivors are exactly the newest `cap` events, oldest -> newest.
  for (std::size_t i = 0; i < mine->events.size(); ++i) {
    EXPECT_EQ(total - cap + i, mine->events[i].a);
  }
}

TEST_F(BlackboxTest, EmptyRingDumpDecodes) {
  // Degenerate dumps must stay decodable: nothing recorded yet (possibly
  // zero registered threads), and rings holding far fewer events than
  // their capacity.
  ASSERT_TRUE(DumpNow(DumpReason::kManual));
  const ReadDump dump = ReadDumpFile(dump_path_);
  EXPECT_FALSE(dump.truncated);
  for (const ReadThread& t : dump.threads) {
    EXPECT_LE(t.events.size(),
              std::min(t.header.head, t.header.capacity));
  }
}

TEST_F(BlackboxTest, TornFinalRecordIsSalvaged) {
  for (int i = 0; i < 10; ++i) Record(EventKind::kSpanBegin, "torn.span", i);
  ASSERT_TRUE(DumpNow(DumpReason::kManual));

  // Chop the file mid-way through the final event record, as a crash while
  // dumping would.
  const auto size = std::filesystem::file_size(dump_path_);
  std::filesystem::resize_file(dump_path_, size - sizeof(EventRecord) / 2);

  const ReadDump dump = ReadDumpFile(dump_path_);
  EXPECT_TRUE(dump.truncated);
  ASSERT_FALSE(dump.threads.empty());
  const ReadThread& last = dump.threads.back();
  // Everything before the tear decodes; only the chopped record is lost.
  EXPECT_EQ(std::min(last.header.head, last.header.capacity) - 1,
            last.events.size() + last.skipped);
}

TEST_F(BlackboxTest, GarbageRecordIsDroppedNotTrusted) {
  for (int i = 0; i < 4; ++i) Record(EventKind::kSpanBegin, "sane.span", i);
  ASSERT_TRUE(DumpNow(DumpReason::kManual));

  // Corrupt the final record in place: kind 0 fails the sanity rule.
  std::fstream f(dump_path_,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-static_cast<std::streamoff>(sizeof(EventRecord)), std::ios::end);
  EventRecord garbage{};
  f.write(reinterpret_cast<const char*>(&garbage), sizeof(garbage));
  f.close();

  const ReadDump dump = ReadDumpFile(dump_path_);
  EXPECT_FALSE(dump.truncated);
  ASSERT_FALSE(dump.threads.empty());
  EXPECT_GE(dump.threads.back().skipped, 1u);
}

TEST_F(BlackboxTest, FirstDumpWins) {
  Record(EventKind::kSpanBegin, "first.span");
  ASSERT_TRUE(DumpNow(DumpReason::kManual));
  EXPECT_FALSE(DumpNow(DumpReason::kGuard));  // forensics are never clobbered
}

TEST_F(BlackboxTest, PositionStackAppearsInDump) {
  PushPosition(EventKind::kRegionBegin, "open.region", 4);
  PushPosition(EventKind::kChunkBegin, "open.region", 0);
  ASSERT_TRUE(DumpNow(DumpReason::kManual));
  PopPosition(EventKind::kChunkEnd, "open.region", 0);
  PopPosition(EventKind::kRegionEnd, "open.region", 4);

  const ReadDump dump = ReadDumpFile(dump_path_);
  const ReadThread* mine = nullptr;
  for (const ReadThread& t : dump.threads) {
    if (t.header.position_depth == 2) mine = &t;
  }
  ASSERT_NE(mine, nullptr) << "open positions missing from the dump";
  EXPECT_EQ(static_cast<std::uint16_t>(EventKind::kRegionBegin),
            static_cast<std::uint16_t>(mine->header.position[0]));
  EXPECT_EQ(static_cast<std::uint16_t>(EventKind::kChunkBegin),
            static_cast<std::uint16_t>(mine->header.position[1]));
  const auto name_id =
      static_cast<std::uint32_t>(mine->header.position[0] >> 32);
  ASSERT_LT(name_id, dump.names.size());
  EXPECT_EQ("open.region", dump.names[name_id]);
}

// --- Watchdog -------------------------------------------------------------

std::atomic<int> g_stall_trips{0};
char g_stall_site[160] = {};

void OnStallForTest(const char* site, std::uint64_t /*age_ns*/) {
  std::snprintf(g_stall_site, sizeof(g_stall_site), "%s", site);
  g_stall_trips.fetch_add(1);
}

TEST_F(BlackboxTest, WatchdogTripsOnInjectedStall) {
  g_stall_trips.store(0);
  g_stall_site[0] = '\0';

  WatchdogOptions options;
  options.deadline_ns = 100'000'000ull;  // 100ms
  options.abort_on_stall = false;        // observe, don't die
  options.on_stall = &OnStallForTest;
  StartWatchdog(options);

  PushPosition(EventKind::kMergeBegin, "stalled.merge", 2);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (g_stall_trips.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  PopPosition(EventKind::kMergeEnd, "stalled.merge", 2);
  StopWatchdog();

  ASSERT_EQ(1, g_stall_trips.load()) << "watchdog missed the stalled merge";
  EXPECT_NE(std::string(g_stall_site).find("stalled.merge"),
            std::string::npos)
      << "stall site was: " << g_stall_site;
  // The trip also wrote forensics.
  const ReadDump dump = ReadDumpFile(dump_path_);
  EXPECT_EQ(static_cast<std::uint32_t>(DumpReason::kWatchdog),
            dump.header.reason);
}

TEST_F(BlackboxTest, WatchdogIgnoresIdleProcess) {
  g_stall_trips.store(0);
  WatchdogOptions options;
  options.deadline_ns = 50'000'000ull;  // 50ms
  options.abort_on_stall = false;
  options.on_stall = &OnStallForTest;
  StartWatchdog(options);
  // Open nothing; an idle process must never trip, however long it idles
  // past the deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  StopWatchdog();
  EXPECT_EQ(0, g_stall_trips.load());
}

TEST_F(BlackboxTest, WatchdogIgnoresActiveLongRegion) {
  g_stall_trips.store(0);
  WatchdogOptions options;
  options.deadline_ns = 80'000'000ull;  // 80ms
  options.abort_on_stall = false;
  options.on_stall = &OnStallForTest;
  StartWatchdog(options);
  // A long region that keeps recording events is making progress: the
  // watchdog ages open positions against the thread's last event, so this
  // must not trip even though the region stays open well past the deadline.
  PushPosition(EventKind::kRegionBegin, "busy.region", 1);
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < end) {
    Record(EventKind::kSpanBegin, "busy.heartbeat");
    Record(EventKind::kSpanEnd, "busy.heartbeat");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  PopPosition(EventKind::kRegionEnd, "busy.region", 1);
  StopWatchdog();
  EXPECT_EQ(0, g_stall_trips.load())
      << "tripped on " << g_stall_site << " despite steady progress";
}

// One parallel layer phase is one position pair on the opening thread with
// each team thread's chunk pair nested inside it — no second region or span
// pair for the same phase.
TEST_F(BlackboxTest, LayerPhaseNestsOneChunkPairPerTeamThread) {
  constexpr int kTeam = 4;
  parallel::ParallelConfig cfg;
  cfg.mode = parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = kTeam;
  parallel::Parallel::Scope scope(cfg);
  std::vector<float> y(64, 0.0f);
  {
    parallel::LayerPhaseScope phase("nest.forward",
                                    parallel::LayerPhase::kForward);
    parallel::ForEachChunk(64, [&](const parallel::Chunk& c) {
      for (index_t i = c.begin; i < c.end; ++i) {
        y[static_cast<std::size_t>(i)] = 1.0f;
      }
    });
  }
  ASSERT_TRUE(DumpNow(DumpReason::kManual));

  const ReadDump dump = ReadDumpFile(dump_path_);
  const std::vector<EventKind> opening = {
      EventKind::kLayerBegin, EventKind::kChunkBegin, EventKind::kChunkEnd,
      EventKind::kLayerEnd};
  const std::vector<EventKind> worker = {EventKind::kChunkBegin,
                                         EventKind::kChunkEnd};
  int opening_rings = 0;
  int worker_rings = 0;
  for (const ReadThread& t : dump.threads) {
    std::vector<EventKind> kinds;
    for (const EventRecord& ev : t.events) {
      EXPECT_EQ(dump.names[EventNameOf(ev.packed)], "nest.forward");
      kinds.push_back(static_cast<EventKind>(EventKindOf(ev.packed)));
    }
    if (kinds.empty()) continue;
    if (kinds.front() == EventKind::kLayerBegin) {
      ++opening_rings;
      EXPECT_EQ(kinds, opening);
    } else {
      ++worker_rings;
      EXPECT_EQ(kinds, worker);
    }
  }
  EXPECT_EQ(opening_rings, 1);
  EXPECT_EQ(worker_rings, kTeam - 1);
}

TEST_F(BlackboxTest, MultiThreadedRecordingKeepsRingsSeparate) {
  constexpr int kThreads = 4;
  constexpr int kEach = 100;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w] {
      for (int i = 0; i < kEach; ++i) {
        Record(EventKind::kSpanBegin, "mt.span",
               static_cast<std::uint64_t>(w));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ASSERT_TRUE(DumpNow(DumpReason::kManual));

  const ReadDump dump = ReadDumpFile(dump_path_);
  int worker_rings = 0;
  for (const ReadThread& t : dump.threads) {
    if (t.events.empty()) continue;
    if (dump.names[EventNameOf(t.events.back().packed)] != "mt.span") {
      continue;
    }
    ++worker_rings;
    EXPECT_EQ(static_cast<std::uint64_t>(kEach), t.header.head);
    // Single-producer discipline: every event in this ring names the same
    // worker.
    for (const EventRecord& ev : t.events) {
      EXPECT_EQ(t.events.front().a, ev.a);
    }
  }
  EXPECT_EQ(kThreads, worker_rings);
}

#else  // !CGDNN_BLACKBOX_ENABLED

TEST(BlackboxDisabled, StubsAreInertAndFree) {
  EXPECT_FALSE(Enabled());
  Record(EventKind::kSpanBegin, "noop");
  EXPECT_FALSE(DumpNow(DumpReason::kManual));
  EXPECT_EQ(0u, RingCapacityForTest());
}

#endif  // CGDNN_BLACKBOX_ENABLED

}  // namespace
}  // namespace cgdnn::blackbox
