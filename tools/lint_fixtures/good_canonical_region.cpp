// Fixture: the canonical cgdnn parallel-region idiom — the region reports
// into the open layer phase (LayerPhaseScope) through one ThreadRegionScope
// per thread, nowait worksharing loop, explicit barrier, ordered gradient
// merge. Outside layer code (the region helper and the benches)
// hand-written regions remain legal.
#include <cstdint>

void GoodCanonicalRegion(float* dest, float* const* parts, float* priv,
                         std::int64_t n, int nthreads) {
  LayerPhaseScope phase("layer.backward", LayerPhase::kBackward);
  phase.BeginTeam(nthreads);
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = 0;
    {
      ThreadRegionScope rscope(phase, nullptr, tid);
#pragma omp for schedule(static) nowait
      for (std::int64_t i = 0; i < n; ++i) {
        priv[i] = 1.0f;
      }
    }
#pragma omp barrier
    AccumulatePrivate(parts, nthreads, dest, n);
  }
}

void GoodNowaitAsTail(float* y, std::int64_t n, int nthreads) {
  LayerPhaseScope phase("layer.forward", LayerPhase::kForward);
  phase.BeginTeam(nthreads);
#pragma omp parallel num_threads(nthreads)
  {
    ThreadRegionScope rscope(phase, nullptr, 0);
    // nowait loop as the last statement: the region-end implicit barrier
    // synchronizes, nothing races.
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 2.0f;
    }
  }
}
