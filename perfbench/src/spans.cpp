#include <sys/resource.h>

#include <omp.h>

#include <cstdio>
#include <sstream>

#include "cgdnn/core/common.hpp"
#include "perfbench.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name,
                           std::uint64_t id, int threads)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  span.id = id;
  span.threads = threads;
  index_ = static_cast<std::int64_t>(rec_->spans_.size());
  rec_->spans_.push_back(std::move(span));
  rec_->open_.push_back(index_);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  rec_->spans_.back().start_ns = cgdnn::MonotonicNowNs();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const std::uint64_t now = cgdnn::MonotonicNowNs();
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns = now;
  rec_->open_.pop_back();
}

std::int64_t SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::WriteJson(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"id\":" << s.id
       << ",\"threads\":" << s.threads << "}";
  }
  os << "\n]\n";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << "]";
  return os.str();
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int HostThreads() { return omp_get_num_procs(); }

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): well-mixed, distinct per stream.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
