// Training workloads (train-lenet, train-cifar) and the traced layer survey.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/parallel/context.hpp"
#include "cgdnn/parallel/merge.hpp"
#include "cgdnn/parallel/privatizer.hpp"
#include "cgdnn/solvers/solver.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using cgdnn::Blob;
using cgdnn::Net;
using cgdnn::Solver;
using cgdnn::index_t;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDataStream = 1;
constexpr std::uint64_t kWeightStream = 2;
constexpr std::uint64_t kProbeStream = 3;

/// Steps compared between T = 1 and T = HostThreads().
constexpr int kInvarianceSteps = 3;
/// Relative loss tolerance between thread counts: the bound the library's
/// own ConvergenceInvariance tests hold it to. Parameter gradients are
/// summed in per-thread chunks, so later losses may differ in the last bits.
constexpr double kInvarianceTol = 1e-4;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

cgdnn::parallel::ParallelConfig ThreadsConfig(int threads) {
  cgdnn::parallel::ParallelConfig cfg;
  cfg.mode = cgdnn::parallel::ExecutionMode::kCoarseGrain;
  cfg.num_threads = threads;
  cfg.merge = cgdnn::parallel::GradientMerge::kOrdered;
  cfg.coalesce = true;
  return cfg;
}

index_t BatchOf(const std::string& net) { return net == "lenet" ? 64 : 100; }

/// Stock SGD solver of `net` with scheduled tests, display and snapshots
/// off; dataset and weights follow the run seed.
cgdnn::proto::SolverParameter SolverFor(const std::string& net,
                                        std::uint64_t seed) {
  cgdnn::models::ModelOptions mo;
  mo.batch_size = BatchOf(net);
  mo.data_seed = DeriveSeed(seed, kDataStream);
  mo.with_accuracy = false;
  cgdnn::proto::SolverParameter sp =
      net == "lenet" ? cgdnn::models::LeNetSolver(mo)
                     : cgdnn::models::Cifar10QuickSolver(mo);
  sp.test_iter = 0;
  sp.test_interval = 0;
  sp.display = 0;
  sp.snapshot = 0;
  sp.random_seed = DeriveSeed(seed, kWeightStream);
  return sp;
}

bool SameBits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------- survey

/// The bench's own layer loop over Net::layers()/bottom_vecs()/top_vecs():
/// the same calls Net::ForwardBackward makes, with a span around each.
class DrivenNet {
 public:
  DrivenNet(Net<float>& net, const std::string& tag) : net_(net), tag_(tag) {
    const std::size_t n = net.layers().size();
    for (std::size_t li = 0; li < n; ++li) {
      fwd_names_.push_back(tag + "." + net.layer_names()[li] + ".fwd");
      bwd_names_.push_back(tag + "." + net.layer_names()[li] + ".bwd");
      std::vector<bool> prop;
      for (const std::size_t bid : net.bottom_id_vecs()[li]) {
        prop.push_back(bid < net.blob_need_backward().size() &&
                       net.blob_need_backward()[bid]);
      }
      propagate_.push_back(std::move(prop));
    }
  }

  /// ClearParamDiffs + forward + backward; returns the loss.
  float Pass(SpanRecorder* spans, std::uint64_t id, int threads) {
    SpanRecorder::Scope pass(spans, tag_ + ".pass", id, threads);
    {
      SpanRecorder::Scope s(spans, tag_ + ".clear", id, threads);
      net_.ClearParamDiffs();
    }
    const auto& layers = net_.layers();
    const auto& bottoms = net_.bottom_vecs();
    const auto& tops = net_.top_vecs();
    float loss = 0;
    {
      SpanRecorder::Scope fwd(spans, tag_ + ".forward", id, threads);
      for (std::size_t li = 0; li < layers.size(); ++li) {
        if (net_.layer_forward_skip(li)) continue;
        SpanRecorder::Scope s(spans, fwd_names_[li], id, threads);
        loss += layers[li]->Forward(bottoms[li], tops[li]);
      }
    }
    {
      SpanRecorder::Scope bwd(spans, tag_ + ".backward", id, threads);
      for (std::size_t li = layers.size(); li-- > 0;) {
        if (!net_.layer_need_backward()[li]) continue;
        SpanRecorder::Scope s(spans, bwd_names_[li], id, threads);
        layers[li]->Backward(tops[li], propagate_[li], bottoms[li]);
      }
    }
    return loss;
  }

 private:
  Net<float>& net_;
  std::string tag_;
  std::vector<std::string> fwd_names_, bwd_names_;
  std::vector<std::vector<bool>> propagate_;
};

/// Single-thread blas::gemm on one conv's per-sample im2col shape
/// (M = C_out, K = C_in * kh * kw, N = H_out * W_out), taken from the net.
std::string GemmProbe(const std::string& tag, const Blob<float>& weight,
                      const Blob<float>& top, std::mt19937_64& rng,
                      SpanRecorder* spans) {
  const index_t m = weight.shape()[0];
  const index_t k = weight.count() / m;
  const index_t n = top.count() / top.shape()[0] / m;
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<float> a(weight.cpu_data(), weight.cpu_data() + weight.count());
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& v : b) v = u(rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  constexpr int kReps = 30;
  for (int rep = -1; rep < kReps; ++rep) {  // rep -1 warms the pack arena
    SpanRecorder::Scope s(rep < 0 ? nullptr : spans, "blas.gemm." + tag,
                          static_cast<std::uint64_t>(rep), 1);
    cgdnn::blas::gemm<float>(cgdnn::blas::Transpose::kNo,
                             cgdnn::blas::Transpose::kNo, m, n, k, 1.0f,
                             a.data(), b.data(), 0.0f, c.data());
  }
  std::ostringstream os;
  os << JsonString(tag) << ":{\"m\":" << m << ",\"n\":" << n << ",\"k\":" << k
     << ",\"flops\":" << 2.0 * static_cast<double>(m * n * k) << "}";
  return os.str();
}

/// parallel::AccumulatePrivate with one private part per thread, `n`
/// values each, timed from outside the region (the slowest thread sets it).
void MergeProbe(const std::string& tag, index_t n, int threads,
                std::mt19937_64& rng, SpanRecorder* spans) {
  std::uniform_real_distribution<float> u(-1e-3f, 1e-3f);
  std::vector<std::vector<float>> parts(static_cast<std::size_t>(threads));
  std::vector<float*> ptrs;
  for (auto& part : parts) {
    part.resize(static_cast<std::size_t>(n));
    for (float& v : part) v = u(rng);
    ptrs.push_back(part.data());
  }
  std::vector<float> dest(static_cast<std::size_t>(n), 0.0f);
  constexpr int kReps = 50;
  for (int rep = -1; rep < kReps; ++rep) {
    SpanRecorder::Scope s(rep < 0 ? nullptr : spans, "parallel.merge." + tag,
                          static_cast<std::uint64_t>(rep), threads);
#pragma omp parallel num_threads(threads)
    cgdnn::parallel::AccumulatePrivate<float>(
        cgdnn::parallel::GradientMerge::kOrdered, ptrs.data(), threads,
        dest.data(), n);
  }
}

/// Traces one net: layer loop bit-identity, T = HostThreads() and T = 1
/// layer spans, the untraced ForwardBackward for the overhead ratio, and
/// the net's gemm, merge and dataset probes. Appends the net's facts and
/// gemm shapes, as JSON members, to `nets` and `gemms`.
void SurveyNet(const Options& opts, const std::string& net, Report* report,
               SpanRecorder* spans, std::vector<std::string>* nets,
               std::vector<std::string>* gemms) {
  const int threads = HostThreads();
  const cgdnn::proto::SolverParameter sp = SolverFor(net, opts.seed);
  std::mt19937_64 rng(DeriveSeed(opts.seed, kProbeStream));

  // data: dataset synthesis as the Data layer requests it.
  const auto& dp = sp.net_param.layer.front().data_param;
  for (int rep = 0; rep < 3; ++rep) {
    cgdnn::data::ClearDatasetCache();
    SpanRecorder::Scope s(spans, "data.load." + net,
                          static_cast<std::uint64_t>(rep), 1);
    cgdnn::data::LoadDataset(dp.source, dp.num_samples, dp.seed);
  }

  cgdnn::parallel::PrivatizationPool::Get().Release();
  cgdnn::data::ClearDatasetCache();
  cgdnn::parallel::Parallel::Scope scope(ThreadsConfig(threads));
  auto plain = cgdnn::CreateSolver<float>(sp);
  auto driven = cgdnn::CreateSolver<float>(sp);
  Net<float>& pnet = plain->net();
  Net<float>& dnet = driven->net();
  DrivenNet loop(dnet, net);

  // Both nets start from identical state: the bench's layer loop must give
  // Net::ForwardBackward's loss and parameter gradients bit for bit.
  pnet.ClearParamDiffs();
  const float plain_loss = pnet.ForwardBackward();
  const float driven_loss = loop.Pass(nullptr, 0, threads);
  bool same = SameBits(&plain_loss, &driven_loss, 1);
  std::ostringstream loss_bits;
  loss_bits << std::hexfloat << "loss " << plain_loss << " vs " << driven_loss;
  std::string detail = loss_bits.str();
  for (std::size_t i = 0; i < pnet.learnable_params().size(); ++i) {
    const Blob<float>& a = *pnet.learnable_params()[i];
    const Blob<float>& b = *dnet.learnable_params()[i];
    if (!SameBits(a.cpu_diff(), b.cpu_diff(),
                  static_cast<std::size_t>(a.count()))) {
      same = false;
      detail += "; param " + std::to_string(i) + " diff differs";
    }
  }
  report->checks.push_back({"layer_loop_bit_identical." + net, same, detail});

  // Interleave traced passes with untraced ForwardBackward calls so that
  // host drift hits both sides of the tracing-overhead ratio alike.
  const int reps = net == "lenet" ? 12 : 5;
  for (int k = 0; k < reps; ++k) {
    {
      SpanRecorder::Scope s(spans, net + ".ForwardBackward",
                            static_cast<std::uint64_t>(k), threads);
      pnet.ClearParamDiffs();
      pnet.ForwardBackward();
    }
    loop.Pass(spans, static_cast<std::uint64_t>(k), threads);
  }
  const std::size_t private_bytes =
      cgdnn::parallel::PrivatizationPool::Get().total_bytes();

  {
    cgdnn::parallel::Parallel::Scope serial(ThreadsConfig(1));
    loop.Pass(nullptr, 0, 1);
    const int serial_reps = net == "lenet" ? 6 : 3;
    for (int k = 0; k < serial_reps; ++k) {
      loop.Pass(spans, static_cast<std::uint64_t>(k), 1);
    }
  }

  std::ostringstream os;
  os << JsonString(net) << ":{\"batch\":" << BatchOf(net)
     << ",\"threads\":" << threads
     << ",\"memory_bytes\":" << dnet.MemoryUsedBytes()
     << ",\"private_bytes\":" << private_bytes << ",\"conv\":[";
  bool first = true;
  for (std::size_t li = 0; li < dnet.layers().size(); ++li) {
    const auto& layer = *dnet.layers()[li];
    const std::string& name = dnet.layer_names()[li];
    const std::string type = layer.type();
    if (type == "Convolution") {
      os << (first ? "" : ",") << JsonString(name);
      first = false;
      gemms->push_back(GemmProbe(net + "." + name, *layer.blobs()[0],
                                *dnet.top_vecs()[li][0], rng, spans));
    }
    // The merges that dominate: LeNet's 400k-weight ip1 gradient, and
    // CIFAR-quick's conv2 gradient (its largest conv backward).
    if ((net == "lenet" && name == "ip1") ||
        (net == "cifar" && name == "conv2")) {
      MergeProbe(net + "_" + name, layer.blobs()[0]->count(), threads, rng,
                 spans);
    }
  }
  os << "],\"ip\":[";
  first = true;
  for (std::size_t li = 0; li < dnet.layers().size(); ++li) {
    if (std::string(dnet.layers()[li]->type()) != "InnerProduct") continue;
    os << (first ? "" : ",") << JsonString(dnet.layer_names()[li]);
    first = false;
  }
  os << "]}";
  nets->push_back(os.str());
}

std::string JsonObject(const std::vector<std::string>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += (i ? "," : "") + members[i];
  }
  return out + "}";
}

}  // namespace

void RunTrain(const Options& opts, const std::string& net, Report* report) {
  const int threads = HostThreads();
  const cgdnn::proto::SolverParameter sp = SolverFor(net, opts.seed);

  // References for convergence invariance: the same seed at T = 1, and a
  // second run at T = threads for run-to-run reproducibility.
  const auto first_losses = [&sp](int t) {
    cgdnn::parallel::Parallel::Scope scope(ThreadsConfig(t));
    cgdnn::data::ClearDatasetCache();
    auto solver = cgdnn::CreateSolver<float>(sp);
    solver->Step(kInvarianceSteps);
    return solver->loss_history();
  };
  const std::vector<float> reference = first_losses(1);
  const std::vector<float> rerun = first_losses(threads);

  cgdnn::parallel::Parallel::Scope scope(ThreadsConfig(threads));
  std::unique_ptr<Solver<float>> solver;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    solver.reset();
    cgdnn::data::ClearDatasetCache();
    const auto t0 = Clock::now();
    solver = cgdnn::CreateSolver<float>(sp);
    solver->Step(1);  // warm-up: arenas and pack scratch reach steady size
    report->setup_s.push_back(SecondsSince(t0));
  }

  std::vector<double> step_s;
  std::uint64_t failed = 0;
  std::string failure;
  const auto end = Clock::now() + std::chrono::duration<double>(opts.seconds);
  while (Clock::now() < end ||
         step_s.size() + 1 < static_cast<std::size_t>(kInvarianceSteps)) {
    const auto t0 = Clock::now();
    try {
      solver->Step(1);
    } catch (const std::exception& e) {
      ++failed;
      failure = e.what();
      break;
    }
    step_s.push_back(SecondsSince(t0));
  }

  // The first loss depends only on the forward pass, which is bit-identical
  // for any thread count; later losses must agree within kInvarianceTol.
  // How many agree bit for bit is printed, not checked.
  const std::vector<float>& losses = solver->loss_history();
  const std::size_t n = reference.size();
  bool invariant = failed == 0 && n > 0 && losses.size() >= n &&
                   SameBits(losses.data(), reference.data(), 1);
  std::size_t same_bits = 0;
  std::ostringstream detail;
  detail << "T=1 vs T=" << threads << " losses:" << std::hexfloat;
  for (std::size_t i = 0; i < n && i < losses.size(); ++i) {
    const double ref = reference[i];
    invariant = invariant && std::abs(losses[i] - ref) <=
                                 kInvarianceTol * std::max(1.0, std::abs(ref));
    same_bits += SameBits(&losses[i], &reference[i], 1);
    detail << " " << reference[i] << "/" << losses[i];
  }
  detail << std::defaultfloat << "; " << same_bits << " of " << n
         << " bit-identical, tolerance " << kInvarianceTol;
  report->checks.push_back({"convergence_invariance", invariant, detail.str()});
  const bool reproducible = failed == 0 && losses.size() >= rerun.size() &&
                            SameBits(losses.data(), rerun.data(), rerun.size());
  report->checks.push_back({"ordered_merge_reproducible", reproducible,
                            "first " + std::to_string(rerun.size()) +
                                " losses of two runs at T=" +
                                std::to_string(threads)});
  report->checks.push_back({"steps_finite", failed == 0, failure});

  std::ostringstream os;
  os << "{\"net\":" << JsonString(net) << ",\"batch\":" << BatchOf(net)
     << ",\"threads\":" << threads << ",\"failed\":" << failed
     << ",\"step_s\":" << JsonNumbers(step_s) << "}";
  report->sections.emplace_back("train", os.str());
}

void RunTrainSurvey(const Options& opts, Report* report, SpanRecorder* spans) {
  std::vector<std::string> nets, gemms;
  for (const char* net : {"lenet", "cifar"}) {
    SurveyNet(opts, net, report, spans, &nets, &gemms);
  }
  report->sections.emplace_back("nets", JsonObject(nets));
  report->sections.emplace_back("gemm", JsonObject(gemms));
}

}  // namespace perfbench
