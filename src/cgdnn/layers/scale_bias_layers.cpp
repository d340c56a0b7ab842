#include "cgdnn/layers/scale_bias_layers.hpp"

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/layers/filler.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

// ------------------------------------------------------------------- Scale

template <typename Dtype>
void ScaleLayer<Dtype>::LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.scale_param;
  CGDNN_CHECK_EQ(p.num_axes, 1) << "only num_axes == 1 is implemented";
  bias_term_ = p.bias_term;
  const int axis = bottom[0]->CanonicalAxisIndex(p.axis);
  if (this->blobs_.empty()) {
    this->blobs_.resize(bias_term_ ? 2 : 1);
    this->blobs_[0] = std::make_shared<Blob<Dtype>>(
        std::vector<index_t>{bottom[0]->shape(axis)});
    GetFiller<Dtype>(p.filler)->Fill(*this->blobs_[0], GlobalRng());
    if (bias_term_) {
      this->blobs_[1] = std::make_shared<Blob<Dtype>>(
          std::vector<index_t>{bottom[0]->shape(axis)});
      GetFiller<Dtype>(p.bias_filler)->Fill(*this->blobs_[1], GlobalRng());
    }
  }
  this->param_propagate_down_.assign(this->blobs_.size(), true);
}

template <typename Dtype>
void ScaleLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.scale_param.axis);
  CGDNN_CHECK_EQ(bottom[0]->shape(axis), this->blobs_[0]->count())
      << "scaled axis changed size for " << this->layer_param_.name;
  outer_ = bottom[0]->count(0, axis);
  scale_dim_ = bottom[0]->shape(axis);
  inner_ = bottom[0]->count(axis + 1);
  top[0]->ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void ScaleLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* w = this->blobs_[0]->cpu_data();
  const Dtype* b = bias_term_ ? this->blobs_[1]->cpu_data() : nullptr;
  Dtype* y = top[0]->mutable_cpu_data();
  for (index_t o = 0; o < outer_; ++o) {
    for (index_t s = 0; s < scale_dim_; ++s) {
      const index_t base = (o * scale_dim_ + s) * inner_;
      for (index_t i = 0; i < inner_; ++i) {
        y[base + i] = x[base + i] * w[s] + (b != nullptr ? b[s] : Dtype(0));
      }
    }
  }
}

template <typename Dtype>
void ScaleLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* w = this->blobs_[0]->cpu_data();
  const Dtype* b = bias_term_ ? this->blobs_[1]->cpu_data() : nullptr;
  Dtype* y = top[0]->mutable_cpu_data();
  // Coalesced (outer, scale_dim) loop: item civ is one inner_-long slice.
  const parallel::CoalescedRange range{outer_, scale_dim_};
  parallel::ForEachChunk(
      range.total(), [&](const parallel::Chunk& c) {
        for (index_t civ = c.begin; civ < c.end; ++civ) {
          const index_t s = range.Decode(civ)[1];
          const index_t base = civ * inner_;
          for (index_t i = 0; i < inner_; ++i) {
            y[base + i] = x[base + i] * w[s] + (b != nullptr ? b[s] : Dtype(0));
          }
        }
        c.Wrote(y, "top.data", c.begin * inner_, c.end * inner_);
      });
}

template <typename Dtype>
void ScaleLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                     const std::vector<bool>& propagate_down,
                                     const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* dy = top[0]->cpu_diff();
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* w = this->blobs_[0]->cpu_data();
  if (this->param_propagate_down(0)) {
    Dtype* dw = this->blobs_[0]->mutable_cpu_diff();
    for (index_t o = 0; o < outer_; ++o) {
      for (index_t s = 0; s < scale_dim_; ++s) {
        const index_t base = (o * scale_dim_ + s) * inner_;
        Dtype sum = dw[s];
        for (index_t i = 0; i < inner_; ++i) sum += dy[base + i] * x[base + i];
        dw[s] = sum;
      }
    }
  }
  if (bias_term_ && this->param_propagate_down(1)) {
    Dtype* db = this->blobs_[1]->mutable_cpu_diff();
    for (index_t o = 0; o < outer_; ++o) {
      for (index_t s = 0; s < scale_dim_; ++s) {
        const index_t base = (o * scale_dim_ + s) * inner_;
        Dtype sum = db[s];
        for (index_t i = 0; i < inner_; ++i) sum += dy[base + i];
        db[s] = sum;
      }
    }
  }
  if (propagate_down[0]) {
    Dtype* dx = bottom[0]->mutable_cpu_diff();
    for (index_t o = 0; o < outer_; ++o) {
      for (index_t s = 0; s < scale_dim_; ++s) {
        const index_t base = (o * scale_dim_ + s) * inner_;
        for (index_t i = 0; i < inner_; ++i) dx[base + i] = dy[base + i] * w[s];
      }
    }
  }
}

template <typename Dtype>
void ScaleLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* dy = top[0]->cpu_diff();
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* w = this->blobs_[0]->cpu_data();
  const bool do_w = this->param_propagate_down(0);
  const bool do_b = bias_term_ && this->param_propagate_down(1);
  Dtype* dw = do_w ? this->blobs_[0]->mutable_cpu_diff() : nullptr;
  Dtype* db = do_b ? this->blobs_[1]->mutable_cpu_diff() : nullptr;
  Dtype* dx = propagate_down[0] ? bottom[0]->mutable_cpu_diff() : nullptr;
  // Coefficient-partitioned gradients: thread t owns coefficients
  // [begin, end) and walks their slices in the serial outer order —
  // bit-identical to the sequential accumulation, no privatization. The
  // bottom gradient is a separate coalesced (outer, scale_dim) partition.
  const parallel::CoalescedRange range{outer_, scale_dim_};
  parallel::ForEachChunk(
      scale_dim_, [&](const parallel::Chunk& c) {
        if (dw != nullptr || db != nullptr) {
          for (index_t s = c.begin; s < c.end; ++s) {
            Dtype wsum = dw != nullptr ? dw[s] : Dtype(0);
            Dtype bsum = db != nullptr ? db[s] : Dtype(0);
            for (index_t o = 0; o < outer_; ++o) {
              const index_t base = (o * scale_dim_ + s) * inner_;
              for (index_t i = 0; i < inner_; ++i) {
                if (dw != nullptr) wsum += dy[base + i] * x[base + i];
                if (db != nullptr) bsum += dy[base + i];
              }
            }
            if (dw != nullptr) dw[s] = wsum;
            if (db != nullptr) db[s] = bsum;
          }
          if (dw != nullptr) c.Wrote(dw, "weight.diff", c.begin, c.end);
          if (db != nullptr) c.Wrote(db, "bias.diff", c.begin, c.end);
        }
        if (dx == nullptr) return;
        const parallel::IterRange items = c.Share(range.total());
        for (index_t civ = items.begin; civ < items.end; ++civ) {
          const index_t s = range.Decode(civ)[1];
          const index_t base = civ * inner_;
          for (index_t i = 0; i < inner_; ++i) {
            dx[base + i] = dy[base + i] * w[s];
          }
        }
        c.Wrote(dx, "bottom.diff", items.begin * inner_, items.end * inner_);
      });
}

// -------------------------------------------------------------------- Bias

template <typename Dtype>
void BiasLayer<Dtype>::LayerSetUp(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.bias_param;
  CGDNN_CHECK_EQ(p.num_axes, 1) << "only num_axes == 1 is implemented";
  const int axis = bottom[0]->CanonicalAxisIndex(p.axis);
  if (this->blobs_.empty()) {
    this->blobs_.resize(1);
    this->blobs_[0] = std::make_shared<Blob<Dtype>>(
        std::vector<index_t>{bottom[0]->shape(axis)});
    GetFiller<Dtype>(p.filler)->Fill(*this->blobs_[0], GlobalRng());
  }
  this->param_propagate_down_.assign(1, true);
}

template <typename Dtype>
void BiasLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                               const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.bias_param.axis);
  CGDNN_CHECK_EQ(bottom[0]->shape(axis), this->blobs_[0]->count())
      << "biased axis changed size for " << this->layer_param_.name;
  outer_ = bottom[0]->count(0, axis);
  bias_dim_ = bottom[0]->shape(axis);
  inner_ = bottom[0]->count(axis + 1);
  top[0]->ReshapeLike(*bottom[0]);
}

template <typename Dtype>
void BiasLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                   const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* b = this->blobs_[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  for (index_t o = 0; o < outer_; ++o) {
    for (index_t s = 0; s < bias_dim_; ++s) {
      const index_t base = (o * bias_dim_ + s) * inner_;
      for (index_t i = 0; i < inner_; ++i) y[base + i] = x[base + i] + b[s];
    }
  }
}

template <typename Dtype>
void BiasLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* b = this->blobs_[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  const parallel::CoalescedRange range{outer_, bias_dim_};
  parallel::ForEachChunk(
      range.total(), [&](const parallel::Chunk& c) {
        for (index_t civ = c.begin; civ < c.end; ++civ) {
          const index_t s = range.Decode(civ)[1];
          const index_t base = civ * inner_;
          for (index_t i = 0; i < inner_; ++i) y[base + i] = x[base + i] + b[s];
        }
        c.Wrote(y, "top.data", c.begin * inner_, c.end * inner_);
      });
}

template <typename Dtype>
void BiasLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                    const std::vector<bool>& propagate_down,
                                    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* dy = top[0]->cpu_diff();
  if (this->param_propagate_down(0)) {
    Dtype* db = this->blobs_[0]->mutable_cpu_diff();
    for (index_t o = 0; o < outer_; ++o) {
      for (index_t s = 0; s < bias_dim_; ++s) {
        const index_t base = (o * bias_dim_ + s) * inner_;
        Dtype sum = db[s];
        for (index_t i = 0; i < inner_; ++i) sum += dy[base + i];
        db[s] = sum;
      }
    }
  }
  if (propagate_down[0] && bottom[0] != top[0]) {
    blas::copy(bottom[0]->count(), dy, bottom[0]->mutable_cpu_diff());
  }
}

template <typename Dtype>
void BiasLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* dy = top[0]->cpu_diff();
  const bool do_b = this->param_propagate_down(0);
  Dtype* db = do_b ? this->blobs_[0]->mutable_cpu_diff() : nullptr;
  if (do_b) {
    // Coefficient-partitioned, as in ScaleLayer's backward.
    parallel::ForEachChunk(
        bias_dim_, [&](const parallel::Chunk& c) {
          for (index_t s = c.begin; s < c.end; ++s) {
            Dtype sum = db[s];
            for (index_t o = 0; o < outer_; ++o) {
              const index_t base = (o * bias_dim_ + s) * inner_;
              for (index_t i = 0; i < inner_; ++i) sum += dy[base + i];
            }
            db[s] = sum;
          }
          c.Wrote(db, "bias.diff", c.begin, c.end);
        });
  }
  if (propagate_down[0] && bottom[0] != top[0]) {
    blas::copy(bottom[0]->count(), dy, bottom[0]->mutable_cpu_diff());
  }
}

#define CGDNN_INSTANTIATE_SB(Layer) \
  template class Layer<float>;      \
  template class Layer<double>

CGDNN_INSTANTIATE_SB(ScaleLayer);
CGDNN_INSTANTIATE_SB(BiasLayer);

}  // namespace cgdnn
