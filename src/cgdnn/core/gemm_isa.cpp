#include "cgdnn/core/gemm_isa.hpp"

#include <cstdlib>
#include <string>

namespace cgdnn {

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512: return "avx512";
    case GemmIsa::kBaseline: break;
  }
  return "baseline";
}

GemmIsa ParseGemmIsa(std::string_view name) {
  for (const GemmIsa isa :
       {GemmIsa::kBaseline, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (name == GemmIsaName(isa)) return isa;
  }
  throw Error(__FILE__, __LINE__,
              "unknown CGDNN_ISA value '" + std::string(name) +
                  "' (expected baseline, avx2 or avx512)");
}

GemmIsa HostGemmIsa() {
#if CGDNN_GEMM_ISA_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return GemmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return GemmIsa::kAvx2;
  }
#endif
  return GemmIsa::kBaseline;
}

GemmIsa ResolveGemmIsa(const char* override_value, GemmIsa host) {
  if (override_value == nullptr || override_value[0] == '\0') return host;
  const GemmIsa isa = ParseGemmIsa(override_value);
  if (static_cast<int>(isa) > static_cast<int>(host)) {
    throw Error(__FILE__, __LINE__,
                std::string("CGDNN_ISA=") + override_value +
                    " is not supported by this host (best available: " +
                    GemmIsaName(host) + ")");
  }
  return isa;
}

GemmIsa ActiveGemmIsa() {
  static const GemmIsa isa =
      ResolveGemmIsa(std::getenv("CGDNN_ISA"), HostGemmIsa());
  return isa;
}

}  // namespace cgdnn
