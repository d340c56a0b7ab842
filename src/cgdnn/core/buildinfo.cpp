#include "cgdnn/core/buildinfo.hpp"

#include <omp.h>

#include <sstream>
#include <string>

#include "cgdnn/core/gemm_isa.hpp"

#ifdef __unix__
#include <sys/resource.h>
#include <unistd.h>
#endif

// Configure-time facts arrive as compile definitions (set in
// src/cgdnn/core/CMakeLists.txt so only this file rebuilds when they
// change). Sensible fallbacks keep non-CMake builds compiling.
#ifndef CGDNN_GIT_SHA
#define CGDNN_GIT_SHA "unknown"
#endif
#ifndef CGDNN_COMPILER_ID
#define CGDNN_COMPILER_ID "unknown"
#endif
#ifndef CGDNN_BUILD_TYPE
#define CGDNN_BUILD_TYPE "unknown"
#endif
#ifndef CGDNN_CXX_FLAGS
#define CGDNN_CXX_FLAGS ""
#endif
#ifndef CGDNN_TRACE_ENABLED
#define CGDNN_TRACE_ENABLED 1
#endif
#ifndef CGDNN_CHECK_ENABLED
#define CGDNN_CHECK_ENABLED 1
#endif
#ifndef CGDNN_BLACKBOX_ENABLED
#define CGDNN_BLACKBOX_ENABLED 1
#endif
#ifndef CGDNN_SANITIZE_NAME
#define CGDNN_SANITIZE_NAME ""
#endif

#define CGDNN_STR_IMPL(x) #x
#define CGDNN_STR(x) CGDNN_STR_IMPL(x)

namespace cgdnn::buildinfo {

namespace {

constexpr const char* kOptions =
    "trace=" CGDNN_STR(CGDNN_TRACE_ENABLED)
    " check=" CGDNN_STR(CGDNN_CHECK_ENABLED)
    " blackbox=" CGDNN_STR(CGDNN_BLACKBOX_ENABLED)
    " sanitize=" CGDNN_SANITIZE_NAME
#ifdef NDEBUG
    " ndebug=1";
#else
    " ndebug=0";
#endif

void WriteJsonEscaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

const Info& Get() {
  static const Info info = {CGDNN_GIT_SHA, CGDNN_COMPILER_ID, CGDNN_BUILD_TYPE,
                            CGDNN_CXX_FLAGS, kOptions};
  return info;
}

const std::string& Hostname() {
  static const std::string hostname = [] {
#ifdef __unix__
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
      return std::string(buf);
    }
#endif
    return std::string("unknown");
  }();
  return hostname;
}

void WriteMetaJson(std::ostream& os) {
  const Info& info = Get();
  os << "{\"git_sha\": ";
  WriteJsonEscaped(os, info.git_sha);
  os << ", \"compiler\": ";
  WriteJsonEscaped(os, info.compiler);
  os << ", \"build_type\": ";
  WriteJsonEscaped(os, info.build_type);
  os << ", \"flags\": ";
  WriteJsonEscaped(os, info.flags);
  os << ", \"options\": ";
  WriteJsonEscaped(os, info.options);
  // The float GEMM kernel this process runs: bits (and speed) differ
  // across ISAs, so reports name it. An invalid CGDNN_ISA is reported as
  // such here; the first GEMM raises the Error.
  try {
    const GemmIsa isa = ActiveGemmIsa();
    const GemmTileShape tile = FloatGemmTile(isa);
    os << ", \"gemm_isa\": \"" << GemmIsaName(isa)
       << "\", \"gemm_tile\": \"" << tile.mr << 'x' << tile.nr << '"';
  } catch (const Error&) {
    os << ", \"gemm_isa\": \"invalid\"";
  }
  os << ", \"threads\": " << omp_get_max_threads();
#ifdef __unix__
  // Peak RSS of the whole process so far (ru_maxrss is KB on Linux). Meta
  // headers are written when the report is, i.e. after the workload — the
  // number covers the run. compare_bench.py diffs it between reports that
  // both carry it (the arena planner's memory claims are gated on this).
  if (struct rusage ru; getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    os << ", \"peak_rss_kb\": " << ru.ru_maxrss;
  }
#endif
  os << ", \"hostname\": ";
  WriteJsonEscaped(os, Hostname().c_str());
  os << "}";
}

std::string MetaJson() {
  std::ostringstream os;
  WriteMetaJson(os);
  return os.str();
}

}  // namespace cgdnn::buildinfo
