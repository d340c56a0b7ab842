// Per-layer cost descriptor: the one place a layer's work is counted.
//
// Computed from the real blob shapes of a constructed net and read by the
// audit's roofline and cgdnn_time's metrics. Its conv entries are the
// planner's ConvForwardFlops / ConvForwardBytes (cost_model.hpp). Kept in
// its own translation unit so binaries that only plan do not link it.
#pragma once

#include <string>
#include <vector>

#include "cgdnn/net/net.hpp"

namespace cgdnn::plan {

/// Work of one pass of a layer over its whole batch.
struct PassCost {
  double flops = 0;
  double bytes = 0;
};

/// Per-layer cost descriptor: what the forward and backward passes compute
/// and move, counted from the blob shapes. Backward counts only the
/// gradients the net actually asks for (a layer whose bottom needs no
/// gradient computes just its parameter gradient).
struct LayerCost {
  std::string name;
  std::string type;
  PassCost forward;
  PassCost backward;
};

/// One descriptor per layer of `net`, in network order. Shapes are resolved
/// once the net is constructed.
std::vector<LayerCost> NetLayerCosts(const Net<float>& net);

}  // namespace cgdnn::plan
