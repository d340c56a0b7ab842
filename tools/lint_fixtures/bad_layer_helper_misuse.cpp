// Fixture: layer code reaching around the region helper — the OpenMP
// runtime directly (thread ids belong to the helper's Chunk) and a
// nondeterministic call inside a helper body, which runs on every thread
// just like a hand-written region would.
// cgdnn-lint: layer-code
// EXPECT: layer-pragma
#include <omp.h>

#include <cstdint>
#include <cstdlib>

void BadThreadIdInLayer(float* y) {
  // EXPECT: layer-pragma
  y[omp_get_thread_num()] = 1.0f;
}

void BadRandInHelperBody(float* y, std::int64_t n) {
  // EXPECT: no-unsafe-calls
  parallel::ForEachChunk("layer.forward", n, [&](const parallel::Chunk& c) {
    for (std::int64_t i = c.begin; i < c.end; ++i) {
      y[i] = static_cast<float>(rand());
    }
  });
}
