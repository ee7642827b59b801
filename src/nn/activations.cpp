#include "nn/activations.h"

#include <cmath>

namespace clpp::nn {

Tensor ReLU::forward(const Tensor& x, bool train) const {
  if (train) input_ = x;
  Tensor y = x;
  for (float& v : y.values())
    if (v < 0.0f) v = 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  CLPP_CHECK_MSG(!input_.empty(), "ReLU::backward without forward");
  CLPP_CHECK(grad_out.shape() == input_.shape());
  Tensor grad_in = grad_out;
  const float* x = input_.data();
  float* g = grad_in.data();
  const std::size_t n = grad_in.numel();
  for (std::size_t i = 0; i < n; ++i)
    if (x[i] <= 0.0f) g[i] = 0.0f;
  return grad_in;
}

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluCoeff = 0.044715f;

inline float gelu_value(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoeff * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

inline float gelu_derivative(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + kGeluCoeff * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kSqrt2OverPi * (1.0f + 3.0f * kGeluCoeff * x * x);
}
}  // namespace

Tensor Gelu::forward(const Tensor& x, bool train) const {
  if (train) input_ = x;
  Tensor y = x;
  for (float& v : y.values()) v = gelu_value(v);
  return y;
}

Tensor Gelu::backward(const Tensor& grad_out) {
  CLPP_CHECK_MSG(!input_.empty(), "Gelu::backward without forward");
  CLPP_CHECK(grad_out.shape() == input_.shape());
  Tensor grad_in = grad_out;
  const float* x = input_.data();
  float* g = grad_in.data();
  const std::size_t n = grad_in.numel();
  for (std::size_t i = 0; i < n; ++i) g[i] *= gelu_derivative(x[i]);
  return grad_in;
}

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(&rng) {
  CLPP_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout rate must be in [0,1), got " << p);
}

Tensor Dropout::forward(const Tensor& x, bool train) const {
  if (!train || p_ == 0.0f) return x;
  mask_ = Tensor(x.shape());
  const float keep_scale = 1.0f / (1.0f - p_);
  Tensor y = x;
  float* m = mask_.data();
  float* v = y.data();
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = rng_->chance(p_) ? 0.0f : keep_scale;
    v[i] *= m[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (p_ == 0.0f) return grad_out;
  CLPP_CHECK(grad_out.shape() == mask_.shape());
  Tensor grad_in = grad_out;
  const float* m = mask_.data();
  float* g = grad_in.data();
  const std::size_t n = grad_in.numel();
  for (std::size_t i = 0; i < n; ++i) g[i] *= m[i];
  return grad_in;
}

}  // namespace clpp::nn
