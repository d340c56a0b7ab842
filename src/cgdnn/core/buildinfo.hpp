// Build/run provenance for emitted artifacts.
//
// Every JSON artifact the tools write (Chrome traces, metrics dumps,
// telemetry streams, BENCH_*/AUDIT_* reports, black-box dumps) stamps the
// same `meta` header: git SHA, compiler + flags, the CGDNN_* feature
// options the binary was built with, the GEMM kernel ISA the process
// picked, the OpenMP thread ceiling and the hostname. Two reports can then
// be compared knowing WHAT produced them — tools/compare_bench.py prints
// both sides' meta whenever it flags a regression, so "regression" vs
// "different build / different machine" is answerable from the reports
// alone.
#pragma once

#include <ostream>
#include <string>

namespace cgdnn::buildinfo {

/// Static facts about this binary, captured at configure/compile time.
struct Info {
  const char* git_sha;    ///< short SHA at configure time ("unknown" outside git)
  const char* compiler;   ///< e.g. "GNU 13.2.0"
  const char* build_type; ///< CMAKE_BUILD_TYPE
  const char* flags;      ///< CMAKE_CXX_FLAGS (may be empty)
  const char* options;    ///< CGDNN_* feature switches, "k=v k=v" form
};

const Info& Get();

/// Hostname via gethostname(2) ("unknown" on failure). Cached.
const std::string& Hostname();

/// Writes the meta header as one JSON object (no trailing separator):
///   {"git_sha": "...", "compiler": "...", "build_type": "...",
///    "flags": "...", "options": "...", "gemm_isa": "avx512",
///    "gemm_tile": "8x32", "threads": N, "peak_rss_kb": N,
///    "hostname": "..."}
/// `gemm_isa`/`gemm_tile` name the float GEMM microkernel this process
/// runs (core/gemm_isa.hpp; "invalid" when CGDNN_ISA is).
/// `threads` is omp_get_max_threads() — the run's thread ceiling.
/// `peak_rss_kb` is the process peak RSS at write time (getrusage;
/// omitted on platforms without it).
void WriteMetaJson(std::ostream& os);

/// WriteMetaJson into a string (handy for sinks that write line-wise).
std::string MetaJson();

}  // namespace cgdnn::buildinfo
