// Fixture: a layer applying a fused elementwise epilogue from its own
// combined parallel-for moves another layer's writes into a loop the region
// helper never sees — no ThreadRegionScope imbalance accounting, no
// write-set check of the fused writes, no exception capture. Layer code
// opens no OpenMP construct at all.
// cgdnn-lint: layer-code
#include <cstdint>

struct Epilogue {
  void ApplyForward(float* data, std::int64_t start, std::int64_t count) const;
};

void BadFusedWithoutDiscipline(float* top, std::int64_t num, std::int64_t dim,
                               const Epilogue* ep) {
  // EXPECT: layer-pragma
#pragma omp parallel for schedule(static)
  for (std::int64_t n = 0; n < num; ++n) {
    ep->ApplyForward(top + n * dim, n * dim, dim);
  }
}
