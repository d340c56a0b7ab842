#include "cgdnn/trace/trace.hpp"

#include <atomic>
#include <iomanip>
#include <mutex>

#include "cgdnn/core/buildinfo.hpp"
#include "cgdnn/core/thread_annotations.hpp"

namespace cgdnn::trace {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_metrics{false};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

bool TracingActive() { return g_tracing.load(std::memory_order_relaxed); }
bool MetricsActive() { return g_metrics.load(std::memory_order_relaxed); }
bool CollectionActive() { return TracingActive() || MetricsActive(); }
void SetMetrics(bool active) {
  g_metrics.store(active, std::memory_order_relaxed);
}

std::uint64_t NowNs() {
  // Shared process epoch (cgdnn::MonotonicNowNs): tracer spans and flight-
  // recorder events land on one timeline, so decoded black-box dumps merge
  // cleanly with Chrome traces.
  return MonotonicNowNs();
}

struct Tracer::ThreadLog {
  int tid = 0;
  std::vector<TraceEvent> events;
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: threads may outlive main
  return *tracer;
}

Tracer::ThreadLog& Tracer::Log() {
  // Registration order assigns the stable tid. OpenMP reuses its worker
  // threads across parallel regions, so each worker keeps one log for the
  // process lifetime; the thread_local caches the lookup.
  static Mutex mu;
  thread_local ThreadLog* log = [this] {
    auto* l = new ThreadLog();
    LockGuard lock(mu);
    l->tid = static_cast<int>(logs_.size());
    logs_.push_back(l);
    return l;
  }();
  return *log;
}

void Tracer::Start() {
  MonotonicNowNs();  // pin the epoch before the first event
  g_tracing.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { g_tracing.store(false, std::memory_order_relaxed); }

void Tracer::Clear() {
  for (ThreadLog* log : logs_) log->events.clear();
}

void Tracer::Emit(const char* category, std::string name,
                  std::uint64_t start_ns, std::uint64_t end_ns) {
  Emit(category, std::move(name), start_ns, end_ns, {});
}

void Tracer::Emit(const char* category, std::string name,
                  std::uint64_t start_ns, std::uint64_t end_ns,
                  std::vector<TraceArg> args) {
  ThreadLog& log = Log();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ev.tid = log.tid;
  ev.args = std::move(args);
  log.events.push_back(std::move(ev));
}

void Tracer::EmitFlow(const char* category, std::string name,
                      std::uint64_t ts_ns, std::uint64_t flow_id,
                      char phase) {
  ThreadLog& log = Log();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.start_ns = ts_ns;
  ev.tid = log.tid;
  ev.phase = phase;
  ev.flow_id = flow_id;
  log.events.push_back(std::move(ev));
}

void Tracer::EmitInstant(const char* category, std::string name,
                         std::uint64_t ts_ns, std::vector<TraceArg> args) {
  ThreadLog& log = Log();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.start_ns = ts_ns;
  ev.tid = log.tid;
  ev.phase = 'i';
  ev.args = std::move(args);
  log.events.push_back(std::move(ev));
}

std::vector<TraceArg> CounterTraceArgs(const perfctr::Delta& delta) {
  std::vector<TraceArg> args;
  if (!delta.valid) return args;
  for (int i = 0; i < perfctr::kNumEvents; ++i) {
    const auto e = static_cast<perfctr::Event>(i);
    if (delta.has(e)) args.push_back({perfctr::EventName(e), delta.get(e)});
  }
  if (args.empty()) return args;
  const double ipc = delta.Ipc();
  if (ipc >= 0) args.push_back({"ipc", ipc});
  const double miss_rate = delta.LlcMissRate();
  if (miss_rate >= 0) args.push_back({"llc_miss_rate", miss_rate});
  const double stalled = delta.StalledFrac();
  if (stalled >= 0) args.push_back({"stalled_frac", stalled});
  args.push_back({"mux_scale", delta.multiplex_scale});
  return args;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const ThreadLog* log : logs_) n += log->events.size();
  return n;
}

std::size_t Tracer::thread_count() const {
  std::size_t n = 0;
  for (const ThreadLog* log : logs_) n += log->events.empty() ? 0 : 1;
  return n;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> all;
  for (const ThreadLog* log : logs_) {
    all.insert(all.end(), log->events.begin(), log->events.end());
  }
  return all;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  // Fixed microsecond timestamps with ns resolution: scientific notation is
  // valid JSON but breaks some trace viewers' zoom heuristics.
  const auto saved_flags = os.flags();
  const auto saved_prec = os.precision();
  os << std::fixed << std::setprecision(3);
  // Provenance rides along as a Chrome metadata ("M") event so the output
  // stays a plain event array (viewers and existing consumers expect '[').
  os << "[\n{\"name\":\"cgdnn_meta\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"meta\":";
  buildinfo::WriteMetaJson(os);
  os << "}}";
  // Every event follows the metadata event, so each one opens with a comma.
  for (const ThreadLog* log : logs_) {
    for (const TraceEvent& ev : log->events) {
      os << ",\n{\"name\":";
      WriteJsonString(os, ev.name);
      os << ",\"cat\":\"" << ev.category << "\",\"ph\":\"" << ev.phase
         << "\",\"ts\":" << static_cast<double>(ev.start_ns) / 1e3;
      if (ev.phase == 'X') {
        os << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1e3;
      }
      os << ",\"pid\":1,\"tid\":" << ev.tid;
      if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
        os << ",\"id\":" << ev.flow_id;
        // Bind the flow end to the ENCLOSING slice, not the next one: the
        // per-request span the flow terminates in is already open when the
        // flow-end timestamp fires.
        if (ev.phase == 'f') os << ",\"bp\":\"e\"";
      }
      if (ev.phase == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
      if (!ev.args.empty()) {
        os << ",\"args\":{";
        bool afirst = true;
        for (const TraceArg& arg : ev.args) {
          if (!afirst) os << ",";
          afirst = false;
          os << "\"" << arg.key << "\":" << arg.value;
        }
        os << "}";
      }
      os << "}";
    }
  }
  os << "\n]\n";
  os.flags(saved_flags);
  os.precision(saved_prec);
}

}  // namespace cgdnn::trace
