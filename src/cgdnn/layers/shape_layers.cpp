#include "cgdnn/layers/shape_layers.hpp"

#include <algorithm>
#include <numeric>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

// ------------------------------------------------------------------- Slice

template <typename Dtype>
void SliceLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                const std::vector<Blob<Dtype>*>& top) {
  const auto& p = this->layer_param_.slice_param;
  axis_ = bottom[0]->CanonicalAxisIndex(p.axis);
  const index_t axis_dim = bottom[0]->shape(axis_);
  sizes_.clear();
  if (p.slice_point.empty()) {
    CGDNN_CHECK_EQ(axis_dim % static_cast<index_t>(top.size()), 0)
        << "axis dim " << axis_dim << " not divisible into " << top.size()
        << " equal slices";
    sizes_.assign(top.size(), axis_dim / static_cast<index_t>(top.size()));
  } else {
    CGDNN_CHECK_EQ(p.slice_point.size(), top.size() - 1)
        << "need exactly tops-1 slice points";
    index_t prev = 0;
    for (const index_t sp : p.slice_point) {
      CGDNN_CHECK_GT(sp, prev) << "slice points must be increasing";
      CGDNN_CHECK_LT(sp, axis_dim) << "slice point beyond axis extent";
      sizes_.push_back(sp - prev);
      prev = sp;
    }
    sizes_.push_back(axis_dim - prev);
  }
  num_slices_ = bottom[0]->count(0, axis_);
  slice_input_ = bottom[0]->count(axis_);
  for (std::size_t i = 0; i < top.size(); ++i) {
    std::vector<index_t> shape = bottom[0]->shape();
    shape[static_cast<std::size_t>(axis_)] = sizes_[i];
    top[i]->Reshape(shape);
  }
}

template <typename Dtype>
void SliceLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  index_t offset = 0;
  for (std::size_t i = 0; i < top.size(); ++i) {
    Dtype* top_data = top[i]->mutable_cpu_data();
    const index_t slice = top[i]->count(axis_);
    for (index_t n = 0; n < num_slices_; ++n) {
      blas::copy(slice, bottom_data + n * slice_input_ + offset,
                 top_data + n * slice);
    }
    offset += slice;
  }
}

template <typename Dtype>
void SliceLayer<Dtype>::Backward_cpu(const std::vector<Blob<Dtype>*>& top,
                                     const std::vector<bool>& propagate_down,
                                     const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  Dtype* bottom_diff = bottom[0]->mutable_cpu_diff();
  index_t offset = 0;
  for (std::size_t i = 0; i < top.size(); ++i) {
    const Dtype* top_diff = top[i]->cpu_diff();
    const index_t slice = top[i]->count(axis_);
    for (index_t n = 0; n < num_slices_; ++n) {
      blas::copy(slice, top_diff + n * slice,
                 bottom_diff + n * slice_input_ + offset);
    }
    offset += slice;
  }
}

// ----------------------------------------------------------------- Reshape

template <typename Dtype>
void ReshapeLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                  const std::vector<Blob<Dtype>*>& top) {
  CGDNN_CHECK_NE(bottom[0], top[0]) << "Reshape cannot run in-place";
  const auto& dims = this->layer_param_.reshape_param.shape.dim;
  CGDNN_CHECK(!dims.empty()) << "reshape_param.shape is required";
  std::vector<index_t> shape;
  int infer_axis = -1;
  index_t known = 1;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    index_t d = dims[i];
    if (d == 0) {
      CGDNN_CHECK_LT(static_cast<int>(i), bottom[0]->num_axes())
          << "dim 0 copies a bottom axis that does not exist";
      d = bottom[0]->shape(static_cast<int>(i));
    }
    if (d == -1) {
      CGDNN_CHECK_EQ(infer_axis, -1) << "at most one -1 dim";
      infer_axis = static_cast<int>(i);
      shape.push_back(0);  // placeholder
      continue;
    }
    CGDNN_CHECK_GT(d, 0) << "invalid reshape dim " << dims[i];
    known *= d;
    shape.push_back(d);
  }
  if (infer_axis >= 0) {
    CGDNN_CHECK_EQ(bottom[0]->count() % known, 0)
        << "cannot infer -1: " << bottom[0]->count() << " not divisible by "
        << known;
    shape[static_cast<std::size_t>(infer_axis)] = bottom[0]->count() / known;
  }
  top[0]->Reshape(shape);
  CGDNN_CHECK_EQ(top[0]->count(), bottom[0]->count())
      << "reshape must preserve the element count";
  top[0]->ShareData(*bottom[0]);
  top[0]->ShareDiff(*bottom[0]);
}

// ------------------------------------------------------------------ ArgMax

template <typename Dtype>
void ArgMaxLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                 const std::vector<Blob<Dtype>*>& top) {
  const auto& p = this->layer_param_.argmax_param;
  top_k_ = p.top_k;
  out_max_val_ = p.out_max_val;
  dim_ = bottom[0]->count(1);
  CGDNN_CHECK_GE(top_k_, 1);
  CGDNN_CHECK_LE(top_k_, dim_) << "top_k exceeds the per-sample dimension";
  top[0]->Reshape({bottom[0]->shape(0), out_max_val_ ? 2 * top_k_ : top_k_});
}

template <typename Dtype>
void ArgMaxLayer<Dtype>::ForwardSample(const Dtype* scores, Dtype* out,
                                       index_t n) const {
  const Dtype* s = scores + n * dim_;
  std::vector<index_t> idx(static_cast<std::size_t>(dim_));
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + top_k_, idx.end(),
                    [s](index_t a, index_t b) {
                      return s[a] > s[b] || (s[a] == s[b] && a < b);
                    });
  const index_t out_dim = out_max_val_ ? 2 * top_k_ : top_k_;
  for (index_t k = 0; k < top_k_; ++k) {
    out[n * out_dim + k] = static_cast<Dtype>(idx[static_cast<std::size_t>(k)]);
    if (out_max_val_) {
      out[n * out_dim + top_k_ + k] = s[idx[static_cast<std::size_t>(k)]];
    }
  }
}

template <typename Dtype>
void ArgMaxLayer<Dtype>::Forward_cpu(const std::vector<Blob<Dtype>*>& bottom,
                                     const std::vector<Blob<Dtype>*>& top) {
  const Dtype* scores = bottom[0]->cpu_data();
  Dtype* out = top[0]->mutable_cpu_data();
  for (index_t n = 0; n < bottom[0]->shape(0); ++n) {
    ForwardSample(scores, out, n);
  }
}

template <typename Dtype>
void ArgMaxLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* scores = bottom[0]->cpu_data();
  Dtype* out = top[0]->mutable_cpu_data();
  const index_t num = bottom[0]->shape(0);
  const index_t out_dim = out_max_val_ ? 2 * top_k_ : top_k_;
  parallel::ForEachChunk(num, [&](const parallel::Chunk& c) {
    for (index_t n = c.begin; n < c.end; ++n) ForwardSample(scores, out, n);
    c.Wrote(out, "top.data", c.begin * out_dim, c.end * out_dim);
  });
}

#define CGDNN_INSTANTIATE_SHAPE(Layer) \
  template class Layer<float>;         \
  template class Layer<double>

CGDNN_INSTANTIATE_SHAPE(SliceLayer);
CGDNN_INSTANTIATE_SHAPE(ReshapeLayer);
CGDNN_INSTANTIATE_SHAPE(ArgMaxLayer);
CGDNN_INSTANTIATE_SHAPE(SilenceLayer);

}  // namespace cgdnn
