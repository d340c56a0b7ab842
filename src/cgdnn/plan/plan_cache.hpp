// On-disk plan cache.
//
// Planning is cheap but not free — the measured-timing refinement runs the
// machine-peak probes plus both conv kernels per ambiguous shape, tens of
// milliseconds that would otherwise be paid at every process start. The
// cache persists each finished plan as JSON keyed by
// (net signature, batch, threads, git SHA, GEMM ISA): the five inputs that
// change the decisions. The git SHA is the coarse invalidator — any rebuild
// from new sources may have changed kernel costs, so cached measurements
// are stale. The GEMM ISA (CGDNN_ISA / cpuid, core/gemm_isa.hpp) changes
// the kernel the measured im2col-vs-direct timings were taken with, within
// one build.
//
// Files live in $CGDNN_PLAN_CACHE_DIR (default .cgdnn_plan_cache/ under the
// working directory) as plan_<crc32-of-key>.json, written atomically
// (data::WriteFileAtomic) so a crash never leaves a torn plan. Lookups
// re-verify every key field after parsing — a CRC collision or hand-edited
// file degrades to a miss, never to a wrong plan.
#pragma once

#include <string>

#include "cgdnn/plan/plan.hpp"

namespace cgdnn::plan {

struct PlanCacheKey {
  std::string net_signature;
  index_t batch = 0;
  int threads = 0;
  std::string git_sha;
  std::string gemm_isa;  ///< GemmIsaName() of the kernel that was measured
};

/// Resolved cache directory: `override_dir` if non-empty, else
/// $CGDNN_PLAN_CACHE_DIR, else ".cgdnn_plan_cache".
std::string PlanCacheDir(const std::string& override_dir = "");

/// Full path of the cache file for `key` inside `dir`.
std::string PlanCachePath(const PlanCacheKey& key, const std::string& dir);

/// Loads and key-verifies a cached plan. False on miss, parse failure, or
/// any key-field mismatch (all mean: re-plan). A file that exists but does
/// not parse — the torn remains of a crashed writer, a disk error, a hand
/// edit — is deleted with a stderr warning so it is never re-probed; a
/// parseable plan whose key fields mismatch (CRC name collision) is left
/// in place, since it is valid for its own configuration.
bool LoadCachedPlan(const PlanCacheKey& key, const std::string& dir,
                    ExecutionPlan* out);

/// Persists `plan` under its own key fields. Creates `dir` if needed.
/// Failures are swallowed (the cache is an optimization, not state).
void StorePlan(const ExecutionPlan& plan, const std::string& dir);

}  // namespace cgdnn::plan
