// Linked into the suites that ctest runs once per CGDNN_ISA value
// (tests/CMakeLists.txt). When the named ISA is one this host lacks, every
// test in the binary skips, instead of failing on the Error the first GEMM
// would raise. gtest reports an environment-level skip as a pass, so the
// environment also prints the marker "cgdnn-gemm-isa-unsupported", which
// those ctest registrations match with SKIP_REGULAR_EXPRESSION.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "cgdnn/core/gemm_isa.hpp"

namespace {

class GemmIsaEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* name = std::getenv("CGDNN_ISA");
    if (name == nullptr || name[0] == '\0') return;
    const cgdnn::GemmIsa host = cgdnn::HostGemmIsa();
    if (static_cast<int>(cgdnn::ParseGemmIsa(name)) >
        static_cast<int>(host)) {
      std::printf("cgdnn-gemm-isa-unsupported: CGDNN_ISA=%s\n", name);
      std::fflush(stdout);
      GTEST_SKIP() << "CGDNN_ISA=" << name << " is not supported here (best: "
                   << cgdnn::GemmIsaName(host) << ")";
    }
  }
};

[[maybe_unused]] ::testing::Environment* const kGemmIsaEnvironment =
    ::testing::AddGlobalTestEnvironment(new GemmIsaEnvironment);

}  // namespace
