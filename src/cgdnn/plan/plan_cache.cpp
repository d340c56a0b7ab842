#include "cgdnn/plan/plan_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "cgdnn/data/io.hpp"

namespace cgdnn::plan {

std::string PlanCacheDir(const std::string& override_dir) {
  if (!override_dir.empty()) return override_dir;
  if (const char* env = std::getenv("CGDNN_PLAN_CACHE_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return ".cgdnn_plan_cache";
}

std::string PlanCachePath(const PlanCacheKey& key, const std::string& dir) {
  // One CRC over all key fields with separators that cannot occur inside
  // them ambiguously; collisions only cost a re-plan (fields re-verified).
  std::string blob = key.net_signature;
  blob += '\n';
  blob += std::to_string(key.batch);
  blob += '\n';
  blob += std::to_string(key.threads);
  blob += '\n';
  blob += key.git_sha;
  blob += '\n';
  blob += key.gemm_isa;
  const std::uint32_t crc = data::Crc32(blob.data(), blob.size());
  char name[32];
  std::snprintf(name, sizeof(name), "plan_%08x.json", crc);
  return dir + "/" + name;
}

bool LoadCachedPlan(const PlanCacheKey& key, const std::string& dir,
                    ExecutionPlan* out) {
  const std::string path = PlanCachePath(key, dir);
  std::string bytes;
  try {
    bytes = data::ReadFileBytes(path);
  } catch (...) {
    return false;  // no file: miss
  }
  ExecutionPlan plan;
  if (!ExecutionPlan::FromJson(bytes, &plan)) {
    // Corrupt or truncated entry (partial write survived a crash, disk
    // error, hand edit). Discard it so every later process pays the parse
    // attempt only once, and say so: silent deletion would mask a flaky
    // disk. A key-field mismatch below is NOT deleted — that file is a
    // valid plan for some other configuration hashed into the same name.
    std::fprintf(stderr,
                 "cgdnn: warning: discarding corrupt plan cache entry %s "
                 "(%zu bytes); re-planning\n",
                 path.c_str(), bytes.size());
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return false;
  }
  if (plan.net_signature != key.net_signature || plan.batch != key.batch ||
      plan.threads != key.threads || plan.git_sha != key.git_sha ||
      plan.gemm_isa != key.gemm_isa) {
    return false;
  }
  *out = std::move(plan);
  return true;
}

void StorePlan(const ExecutionPlan& plan, const std::string& dir) {
  PlanCacheKey key{plan.net_signature, plan.batch, plan.threads,
                   plan.git_sha, plan.gemm_isa};
  try {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    data::WriteFileAtomic(PlanCachePath(key, dir), plan.ToJson());
  } catch (...) {
    // Best-effort: a read-only or full disk must not fail planning.
  }
}

}  // namespace cgdnn::plan
