#include "model/quantized_expert.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace daop::model {

QuantizedExpert quantize_expert(const ExpertWeights& w,
                                const QuantSpec& spec) {
  return QuantizedExpert{QuantizedTensor::quantize(w.w1.unpack(), spec),
                         QuantizedTensor::quantize(w.w3.unpack(), spec),
                         QuantizedTensor::quantize(w.w2.unpack(), spec)};
}

void expert_forward_quantized(const QuantizedExpert& e,
                              std::span<const float> h,
                              std::span<float> out) {
  const auto d_ff = static_cast<std::size_t>(e.w1.rows());
  DAOP_CHECK_EQ(e.w3.rows(), e.w1.rows());
  DAOP_CHECK_EQ(e.w2.cols(), e.w1.rows());
  std::vector<float> a(d_ff);
  std::vector<float> b(d_ff);
  e.w1.matvec(h, a);
  e.w3.matvec(h, b);
  for (std::size_t i = 0; i < d_ff; ++i) a[i] = silu(a[i]) * b[i];
  e.w2.matvec(a, out);
}

QuantizedExpertSet::QuantizedExpertSet(const FunctionalModel& model,
                                       const QuantSpec& spec)
    : spec_(spec),
      n_layers_(model.config().n_layers),
      n_experts_(model.config().n_experts) {
  experts_.reserve(static_cast<std::size_t>(n_layers_ * n_experts_));
  for (int l = 0; l < n_layers_; ++l) {
    for (int e = 0; e < n_experts_; ++e) {
      experts_.push_back(quantize_expert(
          model.weights().layers[static_cast<std::size_t>(l)]
              .experts[static_cast<std::size_t>(e)],
          spec_));
    }
  }
}

const QuantizedExpert& QuantizedExpertSet::get(int layer, int expert) const {
  DAOP_CHECK(layer >= 0 && layer < n_layers_);
  DAOP_CHECK(expert >= 0 && expert < n_experts_);
  return experts_[static_cast<std::size_t>(layer * n_experts_ + expert)];
}

void QuantizedExpertSet::forward(int layer, int expert,
                                 std::span<const float> h,
                                 std::span<float> out) const {
  expert_forward_quantized(get(layer, expert), h, out);
}

}  // namespace daop::model
