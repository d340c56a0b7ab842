// ExecutionPlan: the serializable product of the planning pass.
//
// One plan is valid for exactly one (net signature, batch, thread count,
// git SHA) tuple — the four inputs that change what the planner would
// decide. The plan records three decision families:
//   1. per-conv kernel strategies (im2col-GEMM vs direct), with the cost
//      model's analytic and measured numbers kept for `cgdnn_plan --explain`;
//   2. fusion groups: elementwise in-place consumer chains folded into
//      their producer's output loop;
//   3. the activation arena layout (arena_plan.hpp intervals with offsets).
// Plans serialize to JSON for the on-disk cache (plan_cache.hpp) and the
// cgdnn_plan tool; FromJson treats any malformed input as "no plan".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cgdnn/plan/arena_plan.hpp"

namespace cgdnn::plan {

struct ConvDecision {
  std::string layer;
  bool forward_direct = false;
  bool backward_weights_direct = false;
  // Cost-model evidence (per-sample microseconds; measured < 0 = skipped).
  double im2col_us = 0;
  double direct_us = 0;
  double measured_im2col_us = -1;
  double measured_direct_us = -1;
};

struct FusionGroup {
  std::string producer;
  std::vector<std::string> consumers;  ///< in forward order
};

struct ExecutionPlan {
  // ---- cache key ----
  std::string net_signature;  ///< NetSignature() of the planned net
  index_t batch = 0;
  int threads = 0;
  std::string git_sha;
  std::string gemm_isa;  ///< GEMM kernel ISA the plan was measured under

  // ---- machine model the decisions were derived from ----
  double gflops = 0;
  double mem_gbps = 0;

  // ---- decisions ----
  std::vector<ConvDecision> conv_decisions;
  std::vector<FusionGroup> fusion_groups;
  ArenaLayout arena;          ///< empty intervals = arena disabled
  index_t col_slot_bytes = 0; ///< shared serial col scratch size (0 = none)

  std::string ToJson() const;
  /// Parses a serialized plan; false (and `*out` unspecified) on any
  /// malformed input.
  static bool FromJson(std::string_view text, ExecutionPlan* out);
};

}  // namespace cgdnn::plan
