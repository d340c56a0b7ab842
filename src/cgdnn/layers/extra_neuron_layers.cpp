#include "cgdnn/layers/extra_neuron_layers.hpp"

#include "cgdnn/parallel/region.hpp"

namespace cgdnn {

template <typename Dtype>
void ElementwiseNeuronLayer<Dtype>::Forward_cpu(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) y[i] = Evaluate(x[i]);
}

template <typename Dtype>
void ElementwiseNeuronLayer<Dtype>::Forward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& bottom,
    const std::vector<Blob<Dtype>*>& top) {
  const Dtype* x = bottom[0]->cpu_data();
  Dtype* y = top[0]->mutable_cpu_data();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, y, "top.data",
                           [&](index_t i) { y[i] = Evaluate(x[i]); });
}

template <typename Dtype>
void ElementwiseNeuronLayer<Dtype>::Backward_cpu(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  CGDNN_CHECK(bottom[0] != top[0])
      << this->type() << " backward needs the original input: run out-of-place";
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* y = top[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  for (index_t i = 0; i < count; ++i) dx[i] = dy[i] * Derivative(x[i], y[i]);
}

template <typename Dtype>
void ElementwiseNeuronLayer<Dtype>::Backward_cpu_parallel(
    const std::vector<Blob<Dtype>*>& top,
    const std::vector<bool>& propagate_down,
    const std::vector<Blob<Dtype>*>& bottom) {
  if (!propagate_down[0]) return;
  CGDNN_CHECK(bottom[0] != top[0])
      << this->type() << " backward needs the original input: run out-of-place";
  const Dtype* x = bottom[0]->cpu_data();
  const Dtype* y = top[0]->cpu_data();
  const Dtype* dy = top[0]->cpu_diff();
  Dtype* dx = bottom[0]->mutable_cpu_diff();
  const index_t count = bottom[0]->count();
  parallel::ForEachElement(count, dx, "bottom.diff", [&](index_t i) {
    dx[i] = dy[i] * Derivative(x[i], y[i]);
  });
}

#define CGDNN_INSTANTIATE_EXTRA(Layer) \
  template class Layer<float>;         \
  template class Layer<double>

CGDNN_INSTANTIATE_EXTRA(ElementwiseNeuronLayer);
CGDNN_INSTANTIATE_EXTRA(PowerLayer);
CGDNN_INSTANTIATE_EXTRA(ExpLayer);
CGDNN_INSTANTIATE_EXTRA(LogLayer);
CGDNN_INSTANTIATE_EXTRA(AbsValLayer);
CGDNN_INSTANTIATE_EXTRA(BNLLLayer);
CGDNN_INSTANTIATE_EXTRA(ELULayer);

}  // namespace cgdnn
