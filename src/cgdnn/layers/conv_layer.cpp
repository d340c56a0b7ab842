#include "cgdnn/layers/conv_layer.hpp"

#include <vector>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/blas/im2col.hpp"
#include "cgdnn/layers/filler.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void ConvolutionLayer<Dtype>::LayerSetUp(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.convolution_param;
  num_output_ = p.num_output;
  bias_term_ = p.bias_term;
  kernel_h_ = p.kernel_h;
  kernel_w_ = p.kernel_w;
  stride_h_ = p.stride_h;
  stride_w_ = p.stride_w;
  pad_h_ = p.pad_h;
  pad_w_ = p.pad_w;
  dilation_ = p.dilation;
  group_ = p.group;
  CGDNN_CHECK_GT(num_output_, 0);
  CGDNN_CHECK_GT(kernel_h_, 0) << "kernel size unset for conv layer "
                               << this->layer_param_.name;
  CGDNN_CHECK_GT(kernel_w_, 0);
  CGDNN_CHECK_GT(stride_h_, 0);
  CGDNN_CHECK_GT(stride_w_, 0);
  CGDNN_CHECK_GE(dilation_, 1);
  CGDNN_CHECK_GE(group_, 1);

  channels_ = bottom[0]->channels();
  CGDNN_CHECK_EQ(channels_ % group_, 0);
  CGDNN_CHECK_EQ(num_output_ % group_, 0);

  if (this->blobs_.empty()) {
    this->blobs_.resize(bias_term_ ? 2 : 1);
    this->blobs_[0] = std::make_shared<Blob<Dtype>>(std::vector<index_t>{
        num_output_, channels_ / group_, kernel_h_, kernel_w_});
    GetFiller<Dtype>(p.weight_filler)->Fill(*this->blobs_[0], GlobalRng());
    if (bias_term_) {
      this->blobs_[1] =
          std::make_shared<Blob<Dtype>>(std::vector<index_t>{num_output_});
      GetFiller<Dtype>(p.bias_filler)->Fill(*this->blobs_[1], GlobalRng());
    }
  }
  this->param_propagate_down_.assign(this->blobs_.size(), true);
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                      const std::vector<Blob<Dtype>*>& top) {
  num_ = bottom[0]->num();
  CGDNN_CHECK_EQ(bottom[0]->channels(), channels_)
      << "conv layer input channel count changed";
  height_ = bottom[0]->height();
  width_ = bottom[0]->width();
  out_h_ = blas::ConvOutSize(height_, kernel_h_, pad_h_, stride_h_, dilation_);
  out_w_ = blas::ConvOutSize(width_, kernel_w_, pad_w_, stride_w_, dilation_);
  CGDNN_CHECK_GT(out_h_, 0) << "conv output collapsed to zero height";
  CGDNN_CHECK_GT(out_w_, 0) << "conv output collapsed to zero width";
  out_spatial_ = out_h_ * out_w_;
  kernel_dim_ = channels_ / group_ * kernel_h_ * kernel_w_;
  col_count_ = channels_ * kernel_h_ * kernel_w_ * out_spatial_;
  bottom_dim_ = channels_ * height_ * width_;
  top_dim_ = num_output_ * out_spatial_;
  top[0]->Reshape(num_, num_output_, out_h_, out_w_);
  // col_buffer_ is NOT reshaped here: the parallel paths get per-thread
  // column buffers from the region helper's scratch, so the member buffer is
  // allocated lazily by SerialColBuffer() only when a serial pass runs
  // (otherwise the memory-table bench overcounts by one col buffer).
  if (bias_term_) {
    bias_multiplier_.Reshape({out_spatial_});
    bias_multiplier_.set_data(Dtype(1));
  }
}

template <typename Dtype>
Dtype* ConvolutionLayer<Dtype>::SerialColBuffer() {
  // An arena plan replaces the private buffer with a shared scratch slot
  // (one slot serves every conv layer — col contents never outlive one
  // sample step, so they can all alias).
  if (planned_col_ != nullptr) {
    CGDNN_CHECK_GE(planned_col_count_, col_count_)
        << "arena col slot too small for " << this->layer_param_.name;
    return planned_col_;
  }
  col_buffer_.Reshape({channels_ * kernel_h_ * kernel_w_, out_h_, out_w_});
  return col_buffer_.mutable_cpu_data();
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::BindSerialColBuffer(Dtype* slot,
                                                  index_t count) {
  planned_col_ = slot;
  planned_col_count_ = slot != nullptr ? count : 0;
}

template <typename Dtype>
blas::ConvGeom ConvolutionLayer<Dtype>::geom() const {
  blas::ConvGeom g;
  g.channels = channels_;
  g.height = height_;
  g.width = width_;
  g.kernel_h = kernel_h_;
  g.kernel_w = kernel_w_;
  g.pad_h = pad_h_;
  g.pad_w = pad_w_;
  g.stride_h = stride_h_;
  g.stride_w = stride_w_;
  g.out_h = out_h_;
  g.out_w = out_w_;
  return g;
}

template <typename Dtype>
bool ConvolutionLayer<Dtype>::DirectSupported() const {
  return blas::DirectConvSupported(geom(), group_, dilation_);
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Im2ColSample(const Dtype* bottom_data,
                                           Dtype* col) const {
  blas::im2col(bottom_data, channels_, height_, width_, kernel_h_, kernel_w_,
               pad_h_, pad_w_, stride_h_, stride_w_, dilation_, dilation_,
               col);
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::ForwardSample(const Dtype* bottom_data,
                                            Dtype* top_data,
                                            Dtype* col) const {
  const Dtype* weights = this->blobs_[0]->cpu_data();
  if (forward_strategy_ == ConvStrategy::kDirect) {
    // Implicit im2col: same kernel symbols, no materialized col (col may be
    // null). Planner guarantees DirectSupported(), i.e. group_ == 1.
    blas::DirectConvForward(geom(), num_output_, weights, bottom_data,
                            top_data);
  } else {
    Im2ColSample(bottom_data, col);
    const index_t out_per_group = num_output_ / group_;
    for (index_t g = 0; g < group_; ++g) {
      blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, out_per_group,
                 out_spatial_, kernel_dim_, Dtype(1),
                 weights + g * out_per_group * kernel_dim_,
                 col + g * kernel_dim_ * out_spatial_, Dtype(0),
                 top_data + g * out_per_group * out_spatial_);
    }
  }
  if (bias_term_) {
    // top += bias ⊗ ones(out_spatial)
    blas::ger(num_output_, out_spatial_, Dtype(1),
              this->blobs_[1]->cpu_data(), bias_multiplier_.cpu_data(),
              top_data);
  }
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::BackwardSampleWeights(const Dtype* bottom_data,
                                                    const Dtype* top_diff,
                                                    Dtype* weight_diff,
                                                    Dtype* bias_diff,
                                                    Dtype* col) const {
  if (backward_weights_strategy_ == ConvStrategy::kDirect) {
    blas::DirectConvBackwardWeights(geom(), num_output_, top_diff,
                                    bottom_data, weight_diff);
  } else {
    Im2ColSample(bottom_data, col);
    const index_t out_per_group = num_output_ / group_;
    for (index_t g = 0; g < group_; ++g) {
      // dW_g += top_diff_g (out_per_group x spatial) x col_g^T
      blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, out_per_group,
                 kernel_dim_, out_spatial_, Dtype(1),
                 top_diff + g * out_per_group * out_spatial_,
                 col + g * kernel_dim_ * out_spatial_, Dtype(1),
                 weight_diff + g * out_per_group * kernel_dim_);
    }
  }
  if (bias_diff != nullptr) {
    blas::gemv(blas::Transpose::kNo, num_output_, out_spatial_, Dtype(1),
               top_diff, bias_multiplier_.cpu_data(), Dtype(1), bias_diff);
  }
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::BackwardSampleBottom(const Dtype* top_diff,
                                                   Dtype* bottom_diff,
                                                   Dtype* col) const {
  const Dtype* weights = this->blobs_[0]->cpu_data();
  const index_t out_per_group = num_output_ / group_;
  for (index_t g = 0; g < group_; ++g) {
    // col_g = W_g^T (kdim x out_per_group) x top_diff_g
    blas::gemm(blas::Transpose::kTrans, blas::Transpose::kNo, kernel_dim_,
               out_spatial_, out_per_group, Dtype(1),
               weights + g * out_per_group * kernel_dim_,
               top_diff + g * out_per_group * out_spatial_, Dtype(0),
               col + g * kernel_dim_ * out_spatial_);
  }
  blas::col2im(col, channels_, height_, width_, kernel_h_, kernel_w_, pad_h_,
               pad_w_, stride_h_, stride_w_, dilation_, dilation_,
               bottom_diff);
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  Dtype* col = forward_strategy_ == ConvStrategy::kDirect ? nullptr
                                                          : SerialColBuffer();
  const FusedEpilogue<Dtype>* ep = this->fused_epilogue();
  for (index_t n = 0; n < num_; ++n) {
    ForwardSample(bottom_data + n * bottom_dim_, top_data + n * top_dim_, col);
    if (ep != nullptr) {
      ep->ApplyForward(top_data + n * top_dim_, n * top_dim_, top_dim_);
    }
  }
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  const FusedEpilogue<Dtype>* ep = this->fused_epilogue();
  // Batch-level parallelism, no coalescing needed: each sample is a heavy
  // and uniform work unit (im2col + GEMM) needing only a private column
  // buffer, and all writes are disjoint.
  const bool need_col = forward_strategy_ != ConvStrategy::kDirect;
  parallel::ForEachChunkPrivate<Dtype>(
      num_, need_col ? col_count_ : 0, {},
      [&](const parallel::Chunk& c, Dtype* col, Dtype* const*) {
        for (index_t n = c.begin; n < c.end; ++n) {
          ForwardSample(bottom_data + n * bottom_dim_,
                        top_data + n * top_dim_, col);
          if (ep != nullptr) {
            // Fused elementwise chain, applied while the sample's output
            // is cache-hot; writes stay inside this sample's top range.
            ep->ApplyForward(top_data + n * top_dim_, n * top_dim_,
                             top_dim_);
          }
        }
        c.Wrote(top_data, "top.data", c.begin * top_dim_, c.end * top_dim_);
      });
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* top_diff = top[0]->cpu_diff();
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const bool col_for_weights =
      this->param_propagate_down(0) &&
      backward_weights_strategy_ != ConvStrategy::kDirect;
  Dtype* col = col_for_weights || propagate_down[0] ? SerialColBuffer()
                                                    : nullptr;
  Dtype* weight_diff = this->param_propagate_down(0)
                           ? this->blobs_[0]->mutable_cpu_diff()
                           : nullptr;
  Dtype* bias_diff = bias_term_ && this->param_propagate_down(1)
                         ? this->blobs_[1]->mutable_cpu_diff()
                         : nullptr;
  for (index_t n = 0; n < num_; ++n) {
    if (weight_diff != nullptr) {
      BackwardSampleWeights(bottom_data + n * bottom_dim_,
                            top_diff + n * top_dim_, weight_diff, bias_diff,
                            col);
    }
    if (propagate_down[0]) {
      BackwardSampleBottom(top_diff + n * top_dim_,
                           bottom[0]->mutable_cpu_diff() + n * bottom_dim_,
                           col);
    }
  }
}

template <typename Dtype>
void ConvolutionLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* top_diff = top[0]->cpu_diff();
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const bool do_weights = this->param_propagate_down(0);
  // Shared destinations are resolved in serial code: SyncedMemory state
  // transitions must not happen concurrently inside the parallel region.
  Dtype* weight_diff =
      do_weights ? this->blobs_[0]->mutable_cpu_diff() : nullptr;
  Dtype* bias_diff = bias_term_ && this->param_propagate_down(1)
                         ? this->blobs_[1]->mutable_cpu_diff()
                         : nullptr;
  Dtype* bottom_diff =
      propagate_down[0] ? bottom[0]->mutable_cpu_diff() : nullptr;
  const bool need_col =
      (do_weights && backward_weights_strategy_ != ConvStrategy::kDirect) ||
      bottom_diff != nullptr;
  // Weight and bias gradients are sums over the batch: each thread
  // accumulates its samples into private copies (Algorithm 5), which the
  // helper merges with the configured GradientMerge after the barrier.
  parallel::ForEachChunkPrivate<Dtype>(
      num_, need_col ? col_count_ : 0,
      {{weight_diff, this->blobs_[0]->count()},
       {bias_diff, bias_term_ ? this->blobs_[1]->count() : 0}},
      [&](const parallel::Chunk& c, Dtype* col, Dtype* const* priv) {
        for (index_t n = c.begin; n < c.end; ++n) {
          if (do_weights) {
            BackwardSampleWeights(bottom_data + n * bottom_dim_,
                                  top_diff + n * top_dim_, priv[0], priv[1],
                                  col);
          }
          if (bottom_diff != nullptr) {
            BackwardSampleBottom(top_diff + n * top_dim_,
                                 bottom_diff + n * bottom_dim_, col);
          }
        }
        if (bottom_diff != nullptr) {
          c.Wrote(bottom_diff, "bottom.diff", c.begin * bottom_dim_,
                  c.end * bottom_dim_);
        }
      });
}

template class ConvolutionLayer<float>;
template class ConvolutionLayer<double>;

}  // namespace cgdnn
