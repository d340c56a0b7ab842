// Fixture: after a nowait loop the fast threads race ahead — touching any
// shared state (here: the gradient merge destination) before an explicit
// barrier reads partially written private buffers. In layer code the
// barrier and the merge belong to ForEachChunkPrivate, so the hand-written
// region is itself the finding.
// cgdnn-lint: layer-code
#include <cstdint>

void BadNowaitThenMergeWithoutBarrier(float* dest, float* priv,
                                      std::int64_t n) {
  // EXPECT: layer-pragma
#pragma omp parallel num_threads(4)
  {
    ThreadRegionScope scope(phase, checker, 0);  // instrumentation present
    // EXPECT: layer-pragma
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      priv[i] = 1.0f;
    }
    dest[0] += priv[0];  // no barrier between the nowait loop and this read
  }
}
