#include "cgdnn/perfctr/roofline.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/gemm_isa.hpp"

#if CGDNN_GEMM_ISA_X86
#include <cpuid.h>
#endif

namespace cgdnn::perfctr {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One pass of both probes at `threads` workers, each the best of `reps`.
MachinePeak ProbeOnce(int threads, index_t gemm_dim, index_t triad_elems,
                      int reps) {
  MachinePeak peak;
  peak.threads = threads;

  // --- compute roof: `threads` concurrent packed GEMMs --------------------
  // Every worker multiplies its own gemm_dim^3 problem; the aggregate rate
  // over the slowest rep-synchronized interval is what batch-parallel layer
  // code could at best sustain.
  {
    const std::size_t n2 = static_cast<std::size_t>(gemm_dim * gemm_dim);
    std::vector<std::vector<float>> a(static_cast<std::size_t>(peak.threads)),
        b(a.size()), c(a.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      a[t].assign(n2, 1.0f + 1e-3f * static_cast<float>(t));
      b[t].assign(n2, 0.5f);
      c[t].assign(n2, 0.0f);
    }
    double best_s = 0;
    // Measurement probe, deliberately uninstrumented: region spans would
    // perturb the peak it exists to measure.
#pragma omp parallel num_threads(peak.threads)
    {
      const std::size_t t = static_cast<std::size_t>(omp_get_thread_num());
      // warmup: touch pages + populate pack scratch
      blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, gemm_dim,
                 gemm_dim, gemm_dim, 1.0f, a[t].data(), b[t].data(), 0.0f,
                 c[t].data());
      for (int rep = 0; rep < reps; ++rep) {
#pragma omp barrier
        double t0 = 0;
#pragma omp master
        t0 = NowSeconds();
        blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, gemm_dim,
                   gemm_dim, gemm_dim, 1.0f, a[t].data(), b[t].data(), 0.0f,
                   c[t].data());
#pragma omp barrier
#pragma omp master
        {
          const double s = NowSeconds() - t0;
          if (s > 0 && (best_s == 0 || s < best_s)) best_s = s;
        }
      }
    }
    if (best_s > 0) {
      const double flops = 2.0 * static_cast<double>(gemm_dim) *
                           static_cast<double>(gemm_dim) *
                           static_cast<double>(gemm_dim) *
                           static_cast<double>(peak.threads);
      peak.gflops = flops / best_s / 1e9;
    }
  }

  // --- memory roof: STREAM-style triad ------------------------------------
  // a = b + s*c over arrays sized past the LLC; traffic is counted as the
  // three streamed arrays (write-allocate traffic makes the real number
  // higher, so this ceiling is conservative).
  {
    const std::size_t n = static_cast<std::size_t>(triad_elems);
    std::vector<float> ta(n, 1.0f), tb(n, 2.0f), tc(n, 3.0f);
    double best_s = 0;
    for (int rep = 0; rep < reps + 1; ++rep) {  // first rep = page warmup
      const double t0 = NowSeconds();
#pragma omp parallel for num_threads(peak.threads) schedule(static)
      for (index_t i = 0; i < triad_elems; ++i) {
        ta[static_cast<std::size_t>(i)] =
            tb[static_cast<std::size_t>(i)] +
            1.5f * tc[static_cast<std::size_t>(i)];
      }
      const double s = NowSeconds() - t0;
      if (rep > 0 && s > 0 && (best_s == 0 || s < best_s)) best_s = s;
    }
    if (best_s > 0) {
      const double bytes =
          3.0 * static_cast<double>(triad_elems) * sizeof(float);
      peak.mem_gbps = bytes / best_s / 1e9;
    }
  }
  return peak;
}

}  // namespace

double CpuBaseClockGhz() {
#if CGDNN_GEMM_ISA_X86
  if (__get_cpuid_max(0, nullptr) < 0x16) return 0;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  __cpuid_count(0x16, 0, eax, ebx, ecx, edx);
  return static_cast<double>(eax & 0xffffu) / 1e3;  // MHz -> GHz
#else
  return 0;
#endif
}

MachinePeak MeasureMachinePeak(int threads, index_t gemm_dim,
                               index_t triad_elems, int reps,
                               const MachinePeak* reference) {
  CGDNN_CHECK_GT(gemm_dim, 0);
  CGDNN_CHECK_GT(triad_elems, 0);
  CGDNN_CHECK_GT(reps, 0);
  threads = std::max(threads, 1);
  MachinePeak peak = ProbeOnce(threads, gemm_dim, triad_elems, reps);
  if (reference != nullptr && threads > reference->threads) {
    // Adding workers never lowers an aggregate ceiling; a reading below
    // the narrower one means the host was busy during the probe.
    const auto low = [reference](const MachinePeak& p) {
      return p.gflops < reference->gflops || p.mem_gbps < reference->mem_gbps;
    };
    if (low(peak)) {
      const MachinePeak again =
          ProbeOnce(threads, gemm_dim, triad_elems, reps);
      peak.gflops = std::max(peak.gflops, again.gflops);
      peak.mem_gbps = std::max(peak.mem_gbps, again.mem_gbps);
      peak.probe_rerun = true;
      peak.probe_suspect = low(peak);
    }
  }
  peak.theoretical_gflops =
      threads * GemmIsaFlopsPerCycle(ActiveGemmIsa()) * CpuBaseClockGhz();
  return peak;
}

RooflinePoint PlaceOnRoofline(double flops, double bytes, double time_us,
                              const MachinePeak& peak) {
  RooflinePoint p;
  if (flops <= 0 || bytes <= 0 || time_us <= 0 || peak.gflops <= 0) return p;
  p.ai = flops / bytes;
  p.achieved_gflops = flops / (time_us * 1e3);
  if (peak.mem_gbps > 0 && p.ai * peak.mem_gbps < peak.gflops) {
    p.attainable_gflops = p.ai * peak.mem_gbps;
    p.memory_limited = true;
  } else {
    p.attainable_gflops = peak.gflops;
  }
  if (p.attainable_gflops > 0) {
    p.roof_efficiency = p.achieved_gflops / p.attainable_gflops;
  }
  p.valid = true;
  return p;
}

const char* BoundClassName(BoundClass c) {
  switch (c) {
    case BoundClass::kCompute: return "compute";
    case BoundClass::kMemory: return "memory";
    case BoundClass::kImbalance: return "imbalance";
    case BoundClass::kUnknown: return "unknown";
  }
  return "?";
}

BoundClass ClassifyBound(const RooflinePoint& point, double imbalance_ratio) {
  if (!point.valid) return BoundClass::kUnknown;
  if (imbalance_ratio > kImbalanceBoundThreshold) {
    return BoundClass::kImbalance;
  }
  return point.memory_limited ? BoundClass::kMemory : BoundClass::kCompute;
}

}  // namespace cgdnn::perfctr
