// Fixture: rand()/time() inside a parallel construct give each thread (and
// each run) different values — the serial-equivalence claim dies here.
// GlobalRng is the only sanctioned randomness, and only from serial code.
// Marked as layer code, so each hand-written construct is flagged too.
// cgdnn-lint: layer-code
#include <cstdint>
#include <cstdlib>
#include <ctime>

void BadRandInLoop(float* y, std::int64_t n) {
  // EXPECT: no-unsafe-calls
  // EXPECT: layer-pragma
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(rand());
  }
}

void BadTimeSeedInRegion(float* y, std::int64_t n) {
  // EXPECT: layer-pragma
  // EXPECT: no-unsafe-calls
#pragma omp parallel num_threads(4)
  {
    unsigned seed = static_cast<unsigned>(time(nullptr));
    // EXPECT: layer-pragma
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = static_cast<float>(seed);
    }
  }
}
