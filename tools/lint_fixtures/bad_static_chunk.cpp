// Fixture: schedule(static, 1) round-robins iterations across threads;
// that is only the right mapping for the ordered merge loop (one iteration
// per thread id), so it requires the `ordered` clause.
#include <cstdint>

void BadStaticChunk(float* y, std::int64_t n) {
#pragma omp parallel num_threads(4)
  {
    ThreadRegionScope scope(phase, checker, 0);  // instrumentation present
    // EXPECT: static-schedule
#pragma omp for schedule(static, 1)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 0.0f;
    }
  }
}

void BadStaticChunkFour(float* y, std::int64_t n) {
#pragma omp parallel num_threads(4)
  {
    ThreadRegionScope scope(phase, checker, 0);
    // EXPECT: static-schedule
#pragma omp for ordered schedule(static, 4)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 0.0f;
    }
  }
}
