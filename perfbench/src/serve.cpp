// The serving workload (serve-steady) and the traced run's overload probe:
// cifar10_quick behind serve::Server, offered a fixed-rate open-loop
// Poisson stream by the bench's own generator. The offered rate never
// depends on the server, so a server change cannot change the load it is
// measured under.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/synthetic.hpp"
#include "cgdnn/layers/data_layers.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/plan/planner.hpp"
#include "cgdnn/serve/engine.hpp"
#include "cgdnn/serve/server.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using cgdnn::MonotonicNowNs;
using cgdnn::index_t;
namespace serve = cgdnn::serve;

constexpr std::uint64_t kDataStream = 11;
constexpr std::uint64_t kWeightStream = 12;
constexpr std::uint64_t kArrivalStream = 13;
constexpr std::uint64_t kInputStream = 14;
constexpr std::uint64_t kSampleStream = 15;

constexpr std::uint64_t kDeadlineNs = 50'000'000;  // due + 50 ms
constexpr int kSetupReps = 5;
constexpr index_t kInputPool = 256;
constexpr std::size_t kReferenceSamples = 32;
/// Past the last deadline, how long requests may take to resolve before
/// the server is stopped (which completes whatever is left).
constexpr std::uint64_t kDrainNs = 5'000'000'000;

cgdnn::proto::NetParameter ServeModel(std::uint64_t seed) {
  cgdnn::models::ModelOptions mo;
  mo.data_seed = DeriveSeed(seed, kDataStream);
  mo.with_accuracy = false;
  return cgdnn::models::Cifar10Quick(mo);
}

serve::ServerOptions ServeOptions() {
  serve::ServerOptions so;
  so.workers = 2;
  so.max_batch = 8;
  so.planned = true;
  so.plan_cache = false;
  so.default_deadline_ms = kDeadlineNs / 1'000'000;
  return so;
}

/// One request's outcome. Generator fields are written by the generator
/// thread, completion fields by whichever thread completes the request;
/// both are read only after the generator is joined and `resolved` counts
/// the request.
struct Record {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t submitted_ns = 0;
  std::uint64_t done_ns = 0;
  int status = -1;  ///< serve::Status, -1 = never resolved
  int batch = 0;
  double queue_wait_us = 0;
  double compute_us = 0;
  std::vector<float> output;
};

void SleepUntilNs(std::uint64_t due_ns) {
  const std::uint64_t now = MonotonicNowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Sends every request at its due time through Server::Submit.
void Generate(serve::Server& server, const cgdnn::data::Dataset& pool,
              const std::vector<index_t>& inputs, std::vector<Record>& recs,
              std::atomic<std::size_t>& resolved) {
  const std::size_t dim = static_cast<std::size_t>(pool.sample_dim());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Record& rec = recs[i];
    auto req = std::make_shared<serve::Request>();
    req->id = i + 1;
    req->deadline_ns = rec.due_ns + kDeadlineNs;
    const float* x = pool.sample(inputs[i]);
    req->input.assign(x, x + dim);
    req->done = [&rec, &resolved](serve::Response&& r) {
      rec.done_ns = MonotonicNowNs();
      rec.status = static_cast<int>(r.status);
      rec.batch = r.batch_size;
      rec.queue_wait_us = r.queue_wait_us;
      rec.compute_us = r.compute_us;
      rec.output = std::move(r.output);
      resolved.fetch_add(1, std::memory_order_release);
    };
    SleepUntilNs(rec.due_ns);
    rec.sent_ns = MonotonicNowNs();
    server.Submit(std::move(req));
    rec.submitted_ns = MonotonicNowNs();
  }
}

/// Waves of concurrent requests so every worker runs every bucket once
/// before the window opens.
void WarmUp(serve::Server& server, const cgdnn::data::Dataset& pool) {
  const std::size_t dim = static_cast<std::size_t>(pool.sample_dim());
  for (int wave = 0; wave < 8; ++wave) {
    const int n = 1 << (wave % 4);
    std::atomic<int> left{n};
    for (int i = 0; i < n; ++i) {
      auto req = std::make_shared<serve::Request>();
      req->deadline_ns = MonotonicNowNs() + 10'000'000'000ull;
      const float* x = pool.sample(i);
      req->input.assign(x, x + dim);
      req->done = [&left](serve::Response&&) {
        left.fetch_sub(1, std::memory_order_release);
      };
      server.Submit(std::move(req));
    }
    while (left.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// Batch-1 reference forward on the deploy form of the model, sharing the
/// server's weights; compares a seeded sample of OK responses against it.
Check ReferenceCheck(const std::string& section,
                     const cgdnn::proto::NetParameter& model,
                     serve::Server& server, const cgdnn::data::Dataset& pool,
                     const std::vector<index_t>& inputs,
                     const std::vector<Record>& recs, std::uint64_t seed) {
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].status == static_cast<int>(serve::Status::kOk)) ok.push_back(i);
  }
  std::mt19937_64 rng(DeriveSeed(seed, kSampleStream));
  std::shuffle(ok.begin(), ok.end(), rng);
  if (ok.size() > kReferenceSamples) ok.resize(kReferenceSamples);

  cgdnn::Net<float> ref(
      serve::MakeDeployParam(model, 1, pool.channels, pool.height, pool.width),
      cgdnn::Phase::kTest);
  ref.ShareTrainedLayersWith(server.master_net());
  cgdnn::MemoryDataLayer<float>* input = nullptr;
  for (const auto& layer : ref.layers()) {
    input = dynamic_cast<cgdnn::MemoryDataLayer<float>*>(layer.get());
    if (input != nullptr) break;
  }
  const cgdnn::Blob<float>& prob = *ref.blob_by_name("prob");
  double max_diff = 0;
  for (const std::size_t i : ok) {
    input->Reset(pool.sample(inputs[i]), nullptr, 1);
    ref.Forward();
    const std::vector<float>& out = recs[i].output;
    if (out.size() != static_cast<std::size_t>(prob.count())) {
      max_diff = INFINITY;
      break;
    }
    for (std::size_t j = 0; j < out.size(); ++j) {
      const double diff = static_cast<double>(out[j]) - prob.cpu_data()[j];
      max_diff = std::max(max_diff, std::fabs(diff));
    }
  }
  std::ostringstream detail;
  detail << ok.size() << " responses, max |diff| " << max_diff;
  return {section + ".matches_reference", !ok.empty() && max_diff == 0.0,
          detail.str()};
}

/// Every OK response holds output_size() finite values summing to 1.
bool OutputValid(const Record& rec, std::size_t output_size) {
  if (rec.output.size() != output_size) return false;
  double sum = 0;
  for (const float v : rec.output) {
    if (!std::isfinite(v)) return false;
    sum += v;
  }
  return std::fabs(sum - 1.0) <= 1e-4;
}

template <typename F>
std::string Column(const std::vector<Record>& recs, F field) {
  std::vector<double> col;
  col.reserve(recs.size());
  for (const Record& r : recs) col.push_back(static_cast<double>(field(r)));
  return JsonNumbers(col);
}

}  // namespace

void PlanProbe(const Options& opts, SpanRecorder* spans) {
  // The planner as the server runs it (cost model only, no cache) on the
  // largest serving bucket, at CIFAR's 3x32x32 input.
  cgdnn::Net<float> net(serve::MakeDeployParam(ServeModel(opts.seed),
                                               ServeOptions().max_batch, 3,
                                               32, 32),
                        cgdnn::Phase::kTest);
  cgdnn::plan::PlannerOptions popts;
  popts.threads = 1;
  popts.use_cache = false;
  popts.measure = false;
  for (int rep = 0; rep < 3; ++rep) {
    SpanRecorder::Scope s(spans, "plan.build", static_cast<std::uint64_t>(rep),
                          1);
    cgdnn::plan::BuildPlan(net, popts);
  }
}

void RunServe(const Options& opts, double rate_qps, double window_s,
              const std::string& section, Report* report, SpanRecorder* spans) {
  // Serving is scoped to serial intra-op: with several workers, Start()
  // rejects any other parallel config.
  cgdnn::parallel::ParallelConfig cfg;
  cfg.num_threads = 1;
  cgdnn::parallel::Parallel::Scope serial(cfg);

  const cgdnn::proto::NetParameter model = ServeModel(opts.seed);
  const serve::ServerOptions sopts = ServeOptions();
  const cgdnn::data::Dataset pool = cgdnn::data::MakeSyntheticCifar10(
      kInputPool, DeriveSeed(opts.seed, kInputStream));

  // Open-loop Poisson arrivals, all drawn from the seed: rate x window
  // arrival times uniform over the window (a Poisson process conditioned on
  // its count, so the offered load is the same on every seed).
  std::mt19937_64 arrivals(DeriveSeed(opts.seed, kArrivalStream));
  std::uniform_real_distribution<double> when(0.0, window_s);
  std::uniform_int_distribution<index_t> pick(0, kInputPool - 1);
  std::vector<double> due_s(
      static_cast<std::size_t>(std::llround(rate_qps * window_s)));
  for (double& t : due_s) t = when(arrivals);
  std::sort(due_s.begin(), due_s.end());
  std::vector<index_t> inputs(due_s.size());
  for (index_t& in : inputs) in = pick(arrivals);
  // Declared before the server: request callbacks write here, so the
  // records must outlive it.
  std::vector<Record> recs(due_s.size());
  std::atomic<std::size_t> resolved{0};

  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    cgdnn::data::ClearDatasetCache();
    cgdnn::SeedGlobalRng(DeriveSeed(opts.seed, kWeightStream));
    const auto id = static_cast<std::uint64_t>(rep);
    const std::uint64_t t0 = MonotonicNowNs();
    {
      SpanRecorder::Scope s(spans, section + ".construct", id, 1);
      server = std::make_unique<serve::Server>(model, sopts);
    }
    {
      SpanRecorder::Scope s(spans, section + ".start", id, 1);
      server->Start();
    }
    report->setup_s.push_back(static_cast<double>(MonotonicNowNs() - t0) *
                              1e-9);
  }
  WarmUp(*server, pool);

  const std::uint64_t t0 = MonotonicNowNs() + 1'000'000;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].due_ns = t0 + static_cast<std::uint64_t>(due_s[i] * 1e9);
  }
  std::string generator_error;
  std::thread generator([&] {
    try {
      Generate(*server, pool, inputs, recs, resolved);
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
  });
  generator.join();
  const std::uint64_t last_deadline =
      (recs.empty() ? t0 : recs.back().due_ns) + kDeadlineNs;
  while (resolved.load(std::memory_order_acquire) < recs.size() &&
         MonotonicNowNs() < last_deadline + kDrainNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->Stop();  // completes anything still queued
  const std::size_t unresolved =
      recs.size() - resolved.load(std::memory_order_acquire);

  const auto output_size = static_cast<std::size_t>(server->output_size());
  std::size_t bad_outputs = 0;
  std::vector<double> output_ok;
  for (const Record& r : recs) {
    const bool ok = r.status != static_cast<int>(serve::Status::kOk) ||
                    OutputValid(r, output_size);
    bad_outputs += ok ? 0 : 1;
    output_ok.push_back(ok ? 1 : 0);
  }
  report->checks.push_back({section + ".outputs_are_distributions",
                            bad_outputs == 0,
                            std::to_string(bad_outputs) + " invalid outputs"});
  report->checks.push_back(
      ReferenceCheck(section, model, *server, pool, inputs, recs, opts.seed));
  report->checks.push_back({section + ".all_resolved",
                            unresolved == 0 && generator_error.empty(),
                            std::to_string(unresolved) + " unresolved " +
                                generator_error});

  if (spans != nullptr) {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      if (r.status < 0) continue;
      const std::int64_t parent = spans->Add(
          {section + ".request", r.due_ns, r.done_ns, -1, i + 1, 1});
      spans->Add(
          {section + ".submit", r.sent_ns, r.submitted_ns, parent, i + 1, 1});
    }
  }

  const auto rel = [t0](std::uint64_t ns) {
    return ns == 0 ? -1.0 : static_cast<double>(ns) - static_cast<double>(t0);
  };
  std::ostringstream os;
  os << "{\"rate_qps\":" << rate_qps << ",\"window_s\":" << window_s
     << ",\"deadline_ns\":" << kDeadlineNs << ",\"workers\":" << sopts.workers
     << ",\"max_batch\":" << sopts.max_batch << ",\"due_ns\":"
     << Column(recs, [&](const Record& r) { return rel(r.due_ns); })
     << ",\"sent_ns\":"
     << Column(recs, [&](const Record& r) { return rel(r.sent_ns); })
     << ",\"submitted_ns\":"
     << Column(recs, [&](const Record& r) { return rel(r.submitted_ns); })
     << ",\"done_ns\":"
     << Column(recs, [&](const Record& r) { return rel(r.done_ns); })
     << ",\"status\":" << Column(recs, [](const Record& r) { return r.status; })
     << ",\"batch\":" << Column(recs, [](const Record& r) { return r.batch; })
     << ",\"queue_wait_us\":"
     << Column(recs, [](const Record& r) { return r.queue_wait_us; })
     << ",\"compute_us\":"
     << Column(recs, [](const Record& r) { return r.compute_us; })
     << ",\"output_ok\":" << JsonNumbers(output_ok) << "}";
  report->sections.emplace_back(section, os.str());
}

}  // namespace perfbench
