// Fixture: the layer-code shape — the loop body handed to the region
// helper, no OpenMP in sight. The helper owns the partition, the
// instrumentation, the write-set forwarding, the barrier + merge and the
// exception capture; the body only declares what it wrote.
// cgdnn-lint: layer-code
#include <cstdint>

struct Epilogue {
  void ApplyForward(float* data, std::int64_t start, std::int64_t count) const;
};

void GoodFusedForward(float* top, std::int64_t num, std::int64_t dim,
                      const Epilogue* ep) {
  parallel::ForEachChunk("layer.forward", num, [&](const parallel::Chunk& c) {
    for (std::int64_t n = c.begin; n < c.end; ++n) {
      if (ep != nullptr) ep->ApplyForward(top + n * dim, n * dim, dim);
    }
    c.Wrote(top, "top.data", c.begin * dim, c.end * dim);
  });
}

void GoodPrivatizedBackward(float* wdiff, std::int64_t wcount,
                            std::int64_t num) {
  parallel::ForEachChunkPrivate<float>(
      "layer.backward", num, 0, {{wdiff, wcount}},
      [&](const parallel::Chunk& c, float*, float* const* priv) {
        for (std::int64_t n = c.begin; n < c.end; ++n) priv[0][n % wcount] += 1;
      });
}
