// Fixture: a measurement probe in layer code may opt out of the region
// helper with a suppression comment naming the rule on each construct
// (instrumenting a probe would perturb what it measures). GlobalRng is the
// sanctioned generator: referencing it inside a helper body is not flagged.
// cgdnn-lint: layer-code
#include <cstdint>

void GoodSuppressedProbe(float* y, std::int64_t n) {
  // cgdnn-lint: allow(layer-pragma)
#pragma omp parallel num_threads(4)
  {
    // cgdnn-lint: allow(layer-pragma)
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = 1.0f;
    }
  }
}

void GoodGlobalRngUse(float* y, std::int64_t n) {
  const float seed_val = 0.5f;  // from GlobalRng() in real code
  parallel::ForEachElement("probe.forward", n, y, "top.data",
                           [&](std::int64_t i) { y[i] = seed_val; });
}
