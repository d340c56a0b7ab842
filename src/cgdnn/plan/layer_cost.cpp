#include "cgdnn/plan/layer_cost.hpp"

#include <algorithm>

#include "cgdnn/layers/conv_layer.hpp"
#include "cgdnn/plan/cost_model.hpp"

namespace cgdnn::plan {

namespace {

constexpr int kF = sizeof(float);

/// One layer's descriptor from its principal bottom/top blobs.
/// `bottom_grad` says whether the net asks this layer for its bottom
/// gradient.
LayerCost CountLayer(const Layer<float>& layer, const Blob<float>& bot,
                     const Blob<float>& top, bool bottom_grad) {
  LayerCost c;
  c.type = layer.type();
  const std::string& type = c.type;
  const double bot_n = static_cast<double>(bot.count());
  const double top_n = static_cast<double>(top.count());
  const double bot_b = bot_n * kF;
  const double top_b = top_n * kF;
  // GEMM layers run one forward-sized product per gradient they compute:
  // the parameter gradient (unless frozen) and the bottom gradient (only
  // when the net needs it — conv1 after the data layer skips it).
  const double grads = (layer.param_propagate_down(0) ? 1.0 : 0.0) +
                       (bottom_grad ? 1.0 : 0.0);

  if (type == "Data") {
    c.forward = {0, top_b};
  } else if (type == "Convolution") {
    const auto& conv = dynamic_cast<const ConvolutionLayer<float>&>(layer);
    // Each group convolves channels/group inputs into num_output/group
    // outputs; counting one group and scaling keeps both formulas exact.
    const index_t group = layer.layer_param().convolution_param.group;
    blas::ConvGeom g = conv.geom();
    g.channels /= group;
    const index_t out = conv.num_output() / group;
    const double groups = static_cast<double>(group);
    c.forward = {groups * ConvForwardFlops(g, out) *
                     static_cast<double>(bot.num()),
                 groups * ConvForwardBytes(g, out, kF, bot.num())};
    c.backward = {grads * c.forward.flops, grads * c.forward.bytes};
  } else if (type == "InnerProduct") {
    // One GEMM over the whole batch: the weights are read once per pass.
    double param_b = 0;
    for (const auto& p : layer.blobs()) {
      param_b += static_cast<double>(p->count()) * kF;
    }
    c.forward = {2.0 * static_cast<double>(bot.count(1)) * top_n,
                 bot_b + top_b + param_b};
    c.backward = {grads * c.forward.flops, grads * c.forward.bytes};
  } else if (type == "Pooling") {
    // Each output inspects a kernel window: ~k^2 compares per output.
    const double window = bot_n / std::max(1.0, top_n);
    c.forward = {top_n * window * 3, bot_b + top_b};
    c.backward = {top_n * window, bot_b + top_b};
  } else if (type == "LRN") {
    c.forward = {bot_n * 15, 2 * bot_b + top_b};
    c.backward = {bot_n * 20, 4 * bot_b};
  } else if (type == "ReLU" || type == "Sigmoid" || type == "TanH" ||
             type == "Dropout" || type == "Power" || type == "Exp" ||
             type == "Log" || type == "AbsVal" || type == "BNLL" ||
             type == "ELU") {
    c.forward = {bot_n * 2, bot_b + top_b};
    c.backward = {bot_n * 2, 2 * (bot_b + top_b)};
  } else if (type == "BatchNorm" || type == "Scale" || type == "Bias") {
    c.forward = {bot_n * 4, 2 * bot_b + top_b};
    c.backward = {bot_n * 6, 2 * (bot_b + top_b)};
  } else if (type == "Softmax" || type == "SoftmaxWithLoss") {
    c.forward = {bot_n * 8, bot_b + top_b};
    c.backward = {bot_n * 2, 2 * bot_b};
  } else {
    // Generic small layer (Accuracy, Split, ...): byte-bound copy-ish cost.
    c.forward = {bot_n, bot_b + top_b};
    c.backward = {bot_n, bot_b + top_b};
  }
  return c;
}

}  // namespace

std::vector<LayerCost> NetLayerCosts(const Net<float>& net) {
  std::vector<LayerCost> costs;
  const auto& layers = net.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& bots = net.bottom_vecs()[li];
    const auto& tops = net.top_vecs()[li];
    const auto& need = net.bottom_need_backward()[li];
    const Blob<float>& bot = bots.empty() ? *tops[0] : *bots[0];
    LayerCost c = CountLayer(*layers[li], bot, *tops[0],
                             !need.empty() && need[0]);
    c.name = net.layer_names()[li];
    costs.push_back(std::move(c));
  }
  return costs;
}

}  // namespace cgdnn::plan
