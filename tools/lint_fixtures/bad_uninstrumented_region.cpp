// Fixture: a block-form parallel region in layer code is invisible to the
// tracer AND to the cgdnn-check write-phase protocol, and a CGDNN_CHECK
// thrown inside it calls std::terminate. The region helper does all of
// that for every layer; layer code opens no region of its own.
// cgdnn-lint: layer-code
#include <cstdint>

void BadUninstrumentedRegion(float* y, std::int64_t n) {
  // EXPECT: layer-pragma
#pragma omp parallel num_threads(8)
  {
    // EXPECT: layer-pragma
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 1.0f;
    }
  }
}
