#include "cgdnn/layers/inner_product_layer.hpp"

#include <algorithm>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/layers/filler.hpp"
#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void InnerProductLayer<Dtype>::LayerSetUp(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  (void)top;
  const auto& p = this->layer_param_.inner_product_param;
  num_output_ = p.num_output;
  bias_term_ = p.bias_term;
  CGDNN_CHECK_GT(num_output_, 0);
  const int axis = bottom[0]->CanonicalAxisIndex(p.axis);
  k_ = bottom[0]->count(axis);
  if (this->blobs_.empty()) {
    this->blobs_.resize(bias_term_ ? 2 : 1);
    this->blobs_[0] =
        std::make_shared<Blob<Dtype>>(std::vector<index_t>{num_output_, k_});
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
void InnerProductLayer<Dtype>::Reshape(const std::vector<Blob<Dtype>*>& bottom,
                                       const std::vector<Blob<Dtype>*>& top) {
  const int axis =
      bottom[0]->CanonicalAxisIndex(this->layer_param_.inner_product_param.axis);
  CGDNN_CHECK_EQ(bottom[0]->count(axis), k_)
      << "input feature dimension changed for " << this->layer_param_.name;
  m_ = bottom[0]->count(0, axis);
  top[0]->Reshape({m_, num_output_});
  if (bias_term_) {
    bias_multiplier_.Reshape({m_});
    bias_multiplier_.set_data(Dtype(1));
  }
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* weight = this->blobs_[0]->cpu_data();
  Dtype* top_data = top[0]->mutable_cpu_data();
  // top (m x num_output) = bottom (m x k) * W^T (k x num_output)
  blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, m_, num_output_,
             k_, Dtype(1), bottom_data, weight, Dtype(0), top_data);
  if (bias_term_) {
    blas::ger(m_, num_output_, Dtype(1), bias_multiplier_.cpu_data(),
              this->blobs_[1]->cpu_data(), top_data);
  }
  if (const FusedEpilogue<Dtype>* ep = this->fused_epilogue()) {
    ep->ApplyForward(top_data, 0, m_ * num_output_);
  }
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* weight = this->blobs_[0]->cpu_data();
  const Dtype* bias = bias_term_ ? this->blobs_[1]->cpu_data() : nullptr;
  Dtype* top_data = top[0]->mutable_cpu_data();
  const FusedEpilogue<Dtype>* ep = this->fused_epilogue();
  // Batch-level parallelism: each thread evaluates the GEMM restricted to
  // its contiguous block of samples (rows). Row results are independent,
  // so this is bit-identical to the serial GEMM.
  parallel::ForEachChunk(
      m_, [&](const parallel::Chunk& c) {
        const index_t rows = c.end - c.begin;
        if (rows == 0) return;
        Dtype* out = top_data + c.begin * num_output_;
        blas::gemm(blas::Transpose::kNo, blas::Transpose::kTrans, rows,
                   num_output_, k_, Dtype(1), bottom_data + c.begin * k_,
                   weight, Dtype(0), out);
        if (bias != nullptr) {
          for (index_t s = 0; s < rows; ++s) {
            blas::axpy(num_output_, Dtype(1), bias, out + s * num_output_);
          }
        }
        if (ep != nullptr) {
          // Fused chain over this thread's row chunk — elementwise, so the
          // partitioned application is bit-identical to a whole-blob pass.
          ep->ApplyForward(out, c.begin * num_output_, rows * num_output_);
        }
        c.Wrote(top_data, "top.data", c.begin * num_output_,
                c.end * num_output_);
      });
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* top_diff = top[0]->cpu_diff();
  if (this->param_propagate_down(0)) {
    // dW (num_output x k) += top_diff^T (num_output x m) * bottom (m x k)
    blas::gemm(blas::Transpose::kTrans, blas::Transpose::kNo, num_output_, k_,
               m_, Dtype(1), top_diff, bottom[0]->cpu_data(), Dtype(1),
               this->blobs_[0]->mutable_cpu_diff());
  }
  if (bias_term_ && this->param_propagate_down(1)) {
    // db += top_diff^T * ones
    blas::gemv(blas::Transpose::kTrans, m_, num_output_, Dtype(1), top_diff,
               bias_multiplier_.cpu_data(), Dtype(1),
               this->blobs_[1]->mutable_cpu_diff());
  }
  if (propagate_down[0]) {
    // d_bottom (m x k) = top_diff (m x num_output) * W (num_output x k)
    blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo, m_, k_, num_output_,
               Dtype(1), top_diff, this->blobs_[0]->cpu_data(), Dtype(0),
               bottom[0]->mutable_cpu_diff());
  }
}

template <typename Dtype>
void InnerProductLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  const Dtype* top_diff = top[0]->cpu_diff();
  const Dtype* bottom_data = bottom[0]->cpu_data();
  const Dtype* weight = this->blobs_[0]->cpu_data();
  Dtype* weight_diff = this->param_propagate_down(0)
                           ? this->blobs_[0]->mutable_cpu_diff()
                           : nullptr;
  Dtype* bias_diff = bias_term_ && this->param_propagate_down(1)
                         ? this->blobs_[1]->mutable_cpu_diff()
                         : nullptr;
  Dtype* bottom_diff =
      propagate_down[0] ? bottom[0]->mutable_cpu_diff() : nullptr;
  // Parameter gradients are partitioned by OUTPUT ROW instead of by sample
  // (the loop-rearrangement freedom of paper §3.1.2): each dW row is a sum
  // over all samples, so threads own disjoint rows, no privatization or
  // merge is needed, and the weight matrix — the layer's dominant state —
  // is never copied per thread. A thread's dW rows are the serial GEMM
  // restricted to those rows of op(A) = top_diff^T, so it gathers its
  // columns of top_diff into an m x rows scratch and runs the same GEMM on
  // them: the path choice depends only on (n, k), so every chunk runs the
  // serial call's kernel and its rows come out bit-identical to it. The
  // bottom gradient stays batch-partitioned (disjoint per sample). The
  // scratch is sized for all rows: the team size is the helper's to pick.
  const index_t scratch_count = weight_diff != nullptr ? m_ * num_output_ : 0;
  parallel::ForEachChunkPrivate<Dtype>(
      m_, scratch_count, {},
      [&](const parallel::Chunk& c, Dtype* top_cols, Dtype* const*) {
        const parallel::IterRange rows = c.Share(num_output_);
        const index_t nrows = rows.end - rows.begin;
        if (weight_diff != nullptr && nrows > 0) {
          for (index_t s = 0; s < m_; ++s) {
            std::copy_n(top_diff + s * num_output_ + rows.begin, nrows,
                        top_cols + s * nrows);
          }
          blas::gemm(blas::Transpose::kTrans, blas::Transpose::kNo, nrows, k_,
                     m_, Dtype(1), top_cols, bottom_data, Dtype(1),
                     weight_diff + rows.begin * k_);
          c.Wrote(weight_diff, "weight.diff", rows.begin * k_, rows.end * k_);
        }
        if (bias_diff != nullptr) {
          for (index_t o = rows.begin; o < rows.end; ++o) {
            // Accumulate from the existing value in sample order: the exact
            // association of the serial transposed GEMV.
            Dtype sum = bias_diff[o];
            for (index_t s = 0; s < m_; ++s) {
              sum += top_diff[s * num_output_ + o];
            }
            bias_diff[o] = sum;
          }
          c.Wrote(bias_diff, "bias.diff", rows.begin, rows.end);
        }
        if (bottom_diff != nullptr && c.end > c.begin) {
          blas::gemm(blas::Transpose::kNo, blas::Transpose::kNo,
                     c.end - c.begin, k_, num_output_, Dtype(1),
                     top_diff + c.begin * num_output_, weight, Dtype(0),
                     bottom_diff + c.begin * k_);
          c.Wrote(bottom_diff, "bottom.diff", c.begin * k_, c.end * k_);
        }
      });
}

template class InnerProductLayer<float>;
template class InnerProductLayer<double>;

}  // namespace cgdnn
