#include "cgdnn/plan/planner.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "cgdnn/core/buildinfo.hpp"
#include "cgdnn/core/gemm_isa.hpp"
#include "cgdnn/layers/conv_layer.hpp"
#include "cgdnn/plan/cost_model.hpp"
#include "cgdnn/plan/plan_cache.hpp"
#include "cgdnn/profile/timer.hpp"
#include "cgdnn/trace/metrics.hpp"
#include "cgdnn/trace/trace.hpp"

namespace cgdnn::plan {

namespace {

/// Consumer types allowed in a fused epilogue chain. Dropout is stateful
/// (counter-driven masks), LRN/Pooling are cross-element — never fusable.
bool FusableConsumerType(const std::string& type) {
  return type == "ReLU" || type == "Sigmoid" || type == "TanH" ||
         type == "Scale" || type == "Bias";
}

/// Layer types whose tops carry externally produced batches; never arena'd.
bool IsDataType(const std::string& type) {
  return type == "Data" || type == "DummyData" || type == "MemoryData";
}

/// Layer types whose tops alias their bottom's storage via ShareData —
/// rebinding either side would split the alias, so both stay private.
bool IsSharingType(const std::string& type) {
  return type == "Split" || type == "Flatten" || type == "Reshape";
}

}  // namespace

template <typename Dtype>
std::string NetSignature(const Net<Dtype>& net) {
  std::ostringstream os;
  os << net.name() << "|"
     << (net.phase() == Phase::kTrain ? "train" : "test") << "|"
     << sizeof(Dtype);
  const auto& layers = net.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    os << "|" << net.layer_names()[li] << ":" << layers[li]->type();
    for (const std::size_t ti : net.top_id_vecs()[li]) {
      os << ":";
      const auto& shape = net.blobs()[ti]->shape();
      for (std::size_t a = 0; a < shape.size(); ++a) {
        os << (a ? "x" : "") << shape[a];
      }
    }
  }
  return os.str();
}

namespace {

template <typename Dtype>
void PlanConvStrategies(const Net<Dtype>& net, const PlannerOptions& opts,
                        const perfctr::MachinePeak& peak,
                        ExecutionPlan* plan) {
  const auto& layers = net.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    auto* conv = dynamic_cast<ConvolutionLayer<Dtype>*>(layers[li].get());
    if (conv == nullptr || !conv->DirectSupported()) continue;
    ConvDecision d;
    d.layer = net.layer_names()[li];
    ConvCost cost;
    const bool direct = ChooseDirectForward<Dtype>(
        conv->geom(), conv->num_output(), peak, opts.measure, &cost);
    d.im2col_us = cost.im2col_us;
    d.direct_us = cost.direct_us;
    d.measured_im2col_us = cost.measured_im2col_us;
    d.measured_direct_us = cost.measured_direct_us;
    d.forward_direct = direct;
    // The backward-weights kernel gathers the same columns against the same
    // GEMM loop, so the forward decision transfers (backward-bottom always
    // stays materialized: it WRITES the col matrix).
    d.backward_weights_direct = direct;
    plan->conv_decisions.push_back(std::move(d));
  }
}

template <typename Dtype>
void PlanFusion(const Net<Dtype>& net, ExecutionPlan* plan) {
  const auto& layers = net.layers();
  const auto& tops = net.top_id_vecs();
  const auto& bottoms = net.bottom_id_vecs();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    if (!layers[li]->SupportsFusedEpilogue() || tops[li].size() != 1) {
      continue;
    }
    const std::size_t b = tops[li][0];
    FusionGroup group;
    group.producer = net.layer_names()[li];
    // Walk forward in execution order. A layer that touches blob b either
    // joins the chain (legal in-place elementwise consumer) or ends it: a
    // non-chain reader must still observe the values the UNfused schedule
    // would have given it at that point, so nothing past it may be hoisted
    // into the producer.
    for (std::size_t lj = li + 1; lj < layers.size(); ++lj) {
      const bool reads = std::find(bottoms[lj].begin(), bottoms[lj].end(),
                                   b) != bottoms[lj].end();
      const bool writes =
          std::find(tops[lj].begin(), tops[lj].end(), b) != tops[lj].end();
      if (!reads && !writes) continue;
      const std::string type = layers[lj]->type();
      const bool in_place = reads && writes && bottoms[lj].size() == 1 &&
                            tops[lj].size() == 1;
      const bool stateless_any_phase =
          type == "ReLU" || type == "Sigmoid" || type == "TanH";
      // Scale/Bias backward needs the pre-transform input, which in-place
      // forward destroys — fusable only when their backward never runs
      // (inference-style frozen chains).
      const bool legal =
          in_place && FusableConsumerType(type) &&
          (stateless_any_phase || !net.layer_need_backward()[lj]) &&
          layers[lj]->loss(0) == Dtype(0);
      if (!legal) break;
      group.consumers.push_back(net.layer_names()[lj]);
    }
    if (!group.consumers.empty()) {
      plan->fusion_groups.push_back(std::move(group));
    }
  }
}

template <typename Dtype>
void PlanArena(const Net<Dtype>& net, ExecutionPlan* plan) {
  const auto& layers = net.layers();
  const auto& tops = net.top_id_vecs();
  const auto& bottoms = net.bottom_id_vecs();
  const index_t L = static_cast<index_t>(layers.size());
  const bool train = net.phase() == Phase::kTrain;

  // Blobs that must keep their private storage.
  std::set<std::size_t> excluded;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const std::string type = layers[li]->type();
    if (IsDataType(type)) {
      for (const std::size_t b : tops[li]) excluded.insert(b);
    }
    if (IsSharingType(type)) {
      for (const std::size_t b : tops[li]) excluded.insert(b);
      for (const std::size_t b : bottoms[li]) excluded.insert(b);
    }
    // Loss-weighted tops: their diff plane holds the constant loss weight
    // (read by every Forward) and their data is inspected after the
    // iteration — both planes stay private.
    for (std::size_t ti = 0; ti < tops[li].size(); ++ti) {
      if (layers[li]->loss(static_cast<int>(ti)) != Dtype(0)) {
        excluded.insert(tops[li][ti]);
      }
    }
  }

  // Per-blob first producer and touch range over layer indices.
  const std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> producer(net.blobs().size(), kNone);
  std::vector<std::size_t> min_touch(net.blobs().size(), kNone);
  std::vector<std::size_t> max_touch(net.blobs().size(), 0);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    for (const std::size_t b : tops[li]) {
      if (producer[b] == kNone) producer[b] = li;
    }
    for (const auto* vec : {&tops[li], &bottoms[li]}) {
      for (const std::size_t b : *vec) {
        if (min_touch[b] == kNone) min_touch[b] = li;
        max_touch[b] = std::max(max_touch[b], li);
      }
    }
  }

  std::vector<LifetimeInterval> intervals;
  for (std::size_t b = 0; b < net.blobs().size(); ++b) {
    if (producer[b] == kNone || excluded.count(b) != 0) continue;
    const index_t bytes =
        static_cast<index_t>(net.blobs()[b]->count()) * sizeof(Dtype);
    if (bytes < kMinArenaPlaneBytes) continue;
    const index_t p = static_cast<index_t>(producer[b]);
    const index_t last = static_cast<index_t>(max_touch[b]);
    LifetimeInterval data;
    data.name = net.blob_names()[b];
    data.kind = SlotKind::kData;
    data.blob_id = static_cast<index_t>(b);
    data.start = p;
    data.bytes = bytes;
    // Train: any toucher's backward may read this data; the earliest
    // toucher (the producer) runs backward last, at step 2L-1-p.
    data.end = train ? 2 * L - 1 - p : last;
    intervals.push_back(std::move(data));
    if (train && net.blob_need_backward()[b]) {
      LifetimeInterval diff;
      diff.name = net.blob_names()[b];
      diff.kind = SlotKind::kDiff;
      diff.blob_id = static_cast<index_t>(b);
      // Written first by the last toucher's backward, consumed through the
      // producer's backward.
      diff.start = 2 * L - 1 - last;
      diff.end = 2 * L - 1 - p;
      diff.bytes = bytes;
      intervals.push_back(std::move(diff));
    }
  }

  // The serial-path conv column scratch: all convs share one whole-timeline
  // slot sized for the largest column matrix (its contents never outlive a
  // single sample's lowering, but the slot must exist whenever any conv
  // runs, and point-interval bindings are not expressible with one static
  // pointer per layer).
  index_t col_bytes = 0;
  for (const auto& layer : layers) {
    const auto* conv =
        dynamic_cast<const ConvolutionLayer<Dtype>*>(layer.get());
    if (conv != nullptr) {
      col_bytes = std::max(
          col_bytes, static_cast<index_t>(conv->col_count()) *
                         static_cast<index_t>(sizeof(Dtype)));
    }
  }
  if (col_bytes > 0) {
    LifetimeInterval col;
    col.name = "col";
    col.kind = SlotKind::kCol;
    col.blob_id = -1;
    col.start = 0;
    col.end = 2 * L - 1;
    col.bytes = col_bytes;
    intervals.push_back(std::move(col));
  }
  plan->col_slot_bytes = col_bytes;
  plan->arena = PlanArenaOffsets(std::move(intervals));
}

}  // namespace

template <typename Dtype>
BuildResult BuildPlan(const Net<Dtype>& net, const PlannerOptions& opts) {
  profile::Timer timer;
  BuildResult result;
  ExecutionPlan& plan = result.plan;
  plan.net_signature = NetSignature(net);
  plan.batch = net.blobs().empty() || net.blobs()[0]->num_axes() == 0
                   ? 0
                   : net.blobs()[0]->shape(0);
  plan.threads = opts.threads;
  plan.git_sha = buildinfo::Get().git_sha;
  plan.gemm_isa = GemmIsaName(ActiveGemmIsa());

  const std::string cache_dir = PlanCacheDir(opts.cache_dir);
  if (opts.use_cache) {
    PlanCacheKey key{plan.net_signature, plan.batch, plan.threads,
                     plan.git_sha, plan.gemm_isa};
    ExecutionPlan cached;
    if (LoadCachedPlan(key, cache_dir, &cached)) {
      result.plan = std::move(cached);
      result.cache_hit = true;
      result.build_us = timer.MicroSeconds();
      return result;
    }
  }

  // Cold build: probe the machine, then decide. The probes (and the
  // measured kernel timings inside PlanConvStrategies) are what the warm
  // path skips — the cold/warm gap the cache tests assert on.
  if (opts.enable_direct) {
    const perfctr::MachinePeak peak =
        perfctr::MeasureMachinePeak(opts.threads);
    plan.gflops = peak.gflops;
    plan.mem_gbps = peak.mem_gbps;
    PlanConvStrategies(net, opts, peak, &plan);
  }
  if (opts.enable_fusion) PlanFusion(net, &plan);
  if (opts.enable_arena) PlanArena(net, &plan);

  if (opts.use_cache) StorePlan(plan, cache_dir);
  result.build_us = timer.MicroSeconds();
  return result;
}

namespace {

/// State a plan attaches to its net: the arena storage and the epilogue
/// chains (layers hold raw views into both).
template <typename Dtype>
struct PlanState {
  AlignedBuffer arena;
  std::vector<std::shared_ptr<const FusedEpilogue<Dtype>>> epilogues;
};

template <typename Dtype>
FusedOp<Dtype> MakeFusedOp(const Layer<Dtype>& layer,
                           const Blob<Dtype>& bottom) {
  const std::string type = layer.type();
  FusedOp<Dtype> op;
  if (type == "ReLU") {
    op.kind = FusedOpKind::kReLU;
    op.slope = static_cast<Dtype>(layer.layer_param().relu_param.negative_slope);
  } else if (type == "Sigmoid") {
    op.kind = FusedOpKind::kSigmoid;
  } else if (type == "TanH") {
    op.kind = FusedOpKind::kTanH;
  } else if (type == "Scale") {
    op.kind = FusedOpKind::kScale;
    const int axis =
        bottom.CanonicalAxisIndex(layer.layer_param().scale_param.axis);
    op.coef = layer.blobs()[0]->cpu_data();
    op.bias = layer.blobs().size() > 1 ? layer.blobs()[1]->cpu_data() : nullptr;
    op.dim = bottom.shape(axis);
    op.inner = bottom.count(axis + 1);
  } else if (type == "Bias") {
    op.kind = FusedOpKind::kBias;
    const int axis =
        bottom.CanonicalAxisIndex(layer.layer_param().bias_param.axis);
    op.coef = layer.blobs()[0]->cpu_data();
    op.dim = bottom.shape(axis);
    op.inner = bottom.count(axis + 1);
  } else {
    CGDNN_CHECK(false) << "not a fusable layer type: " << type;
  }
  return op;
}

}  // namespace

template <typename Dtype>
void ApplyPlan(Net<Dtype>* net, const ExecutionPlan& plan) {
  const std::uint64_t start_ns = trace::NowNs();
  auto state = std::make_shared<PlanState<Dtype>>();

  // ---- conv strategies ----
  index_t direct_convs = 0;
  for (const ConvDecision& d : plan.conv_decisions) {
    CGDNN_CHECK(net->has_layer(d.layer)) << "planned conv missing: " << d.layer;
    auto* conv = dynamic_cast<ConvolutionLayer<Dtype>*>(
        net->layer_by_name(d.layer).get());
    CGDNN_CHECK(conv != nullptr) << d.layer << " is not a Convolution layer";
    conv->set_forward_strategy(d.forward_direct ? ConvStrategy::kDirect
                                                : ConvStrategy::kIm2colGemm);
    conv->set_backward_weights_strategy(d.backward_weights_direct
                                            ? ConvStrategy::kDirect
                                            : ConvStrategy::kIm2colGemm);
    direct_convs += d.forward_direct ? 1 : 0;
  }

  // ---- fusion ----
  std::map<std::string, std::size_t> layer_index;
  for (std::size_t li = 0; li < net->layer_names().size(); ++li) {
    layer_index[net->layer_names()[li]] = li;
  }
  index_t fused_layers = 0;
  for (const FusionGroup& g : plan.fusion_groups) {
    CGDNN_CHECK(net->has_layer(g.producer))
        << "planned producer missing: " << g.producer;
    auto ep = std::make_shared<FusedEpilogue<Dtype>>();
    for (const std::string& name : g.consumers) {
      const auto it = layer_index.find(name);
      CGDNN_CHECK(it != layer_index.end())
          << "planned consumer missing: " << name;
      const std::size_t ci = it->second;
      const Layer<Dtype>& consumer = *net->layers()[ci];
      ep->Append(MakeFusedOp(consumer, *net->bottom_vecs()[ci][0]), name);
      net->set_layer_forward_skip(ci, true);
      ++fused_layers;
    }
    net->layer_by_name(g.producer)
        ->set_fused_epilogue(
            std::shared_ptr<const FusedEpilogue<Dtype>>(ep));
    state->epilogues.push_back(std::move(ep));
  }

  // ---- arena binding ----
  if (plan.arena.total_bytes > 0 && !plan.arena.intervals.empty()) {
    state->arena = AlignedBuffer(static_cast<std::size_t>(
        plan.arena.total_bytes));
    char* base = static_cast<char*>(state->arena.get());
    for (const LifetimeInterval& iv : plan.arena.intervals) {
      if (iv.kind == SlotKind::kCol) {
        for (const auto& layer : net->layers()) {
          auto* conv =
              dynamic_cast<ConvolutionLayer<Dtype>*>(layer.get());
          if (conv != nullptr) {
            conv->BindSerialColBuffer(
                reinterpret_cast<Dtype*>(base + iv.offset),
                iv.bytes / static_cast<index_t>(sizeof(Dtype)));
          }
        }
        continue;
      }
      CGDNN_CHECK_GE(iv.blob_id, 0);
      CGDNN_CHECK_LT(static_cast<std::size_t>(iv.blob_id),
                     net->blobs().size());
      const auto& blob = net->blobs()[static_cast<std::size_t>(iv.blob_id)];
      CGDNN_CHECK_EQ(static_cast<index_t>(blob->count() * sizeof(Dtype)),
                     iv.bytes)
          << "plan/net shape mismatch on " << iv.name;
      void* slot = base + iv.offset;
      if (iv.kind == SlotKind::kData) {
        std::memcpy(slot, blob->cpu_data(),
                    static_cast<std::size_t>(iv.bytes));
        blob->data()->set_cpu_data(slot);
      } else {
        std::memcpy(slot, blob->cpu_diff(),
                    static_cast<std::size_t>(iv.bytes));
        blob->diff()->set_cpu_data(slot);
      }
    }
  }

  net->AttachPlanState(std::shared_ptr<void>(state));

  // ---- observability: decisions as metrics + one trace span ----
  auto& metrics = trace::MetricsRegistry::Default();
  metrics.GetGauge("plan.arena_bytes")
      .Set(static_cast<double>(plan.arena.total_bytes));
  metrics.GetGauge("plan.per_plane_bytes")
      .Set(static_cast<double>(plan.arena.per_plane_bytes));
  metrics.GetGauge("plan.col_slot_bytes")
      .Set(static_cast<double>(plan.col_slot_bytes));
  metrics.GetGauge("plan.fused_layers").Set(static_cast<double>(fused_layers));
  metrics.GetGauge("plan.direct_convs").Set(static_cast<double>(direct_convs));
  trace::Tracer::Get().Emit(
      "plan", net->name() + ".apply", start_ns, trace::NowNs(),
      {{"arena_bytes", static_cast<double>(plan.arena.total_bytes)},
       {"per_plane_bytes", static_cast<double>(plan.arena.per_plane_bytes)},
       {"fused_layers", static_cast<double>(fused_layers)},
       {"direct_convs", static_cast<double>(direct_convs)}});
}

template <typename Dtype>
BuildResult PlanAndApply(Net<Dtype>* net, const PlannerOptions& opts) {
  BuildResult result = BuildPlan(*net, opts);
  ApplyPlan(net, result.plan);
  return result;
}

template std::string NetSignature<float>(const Net<float>&);
template std::string NetSignature<double>(const Net<double>&);
template BuildResult BuildPlan<float>(const Net<float>&,
                                      const PlannerOptions&);
template BuildResult BuildPlan<double>(const Net<double>&,
                                       const PlannerOptions&);
template void ApplyPlan<float>(Net<float>*, const ExecutionPlan&);
template void ApplyPlan<double>(Net<double>*, const ExecutionPlan&);
template BuildResult PlanAndApply<float>(Net<float>*, const PlannerOptions&);
template BuildResult PlanAndApply<double>(Net<double>*,
                                          const PlannerOptions&);

}  // namespace cgdnn::plan
