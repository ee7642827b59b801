#include "nn/layernorm.h"

#include <cmath>

namespace clpp::nn {

LayerNorm::LayerNorm(std::string name, std::size_t features, float eps)
    : gamma(name + ".gamma", Tensor::full({features}, 1.0f)),
      beta(name + ".beta", Tensor({features})),
      eps_(eps) {}

Tensor LayerNorm::forward(const Tensor& x, bool train) const {
  const std::size_t n = gamma.value.dim(0);
  CLPP_CHECK_MSG(x.rank() == 2 && x.cols() == n,
                 "LayerNorm input " << x.shape_str() << " incompatible with features="
                                    << n);
  const std::size_t rows = x.rows();
  Tensor normalized({rows, n});
  Tensor inv_std({rows});
  Tensor y({rows, n});
  const float* g = gamma.value.data();
  const float* b = beta.value.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* xr = x.row(i);
    float mean = 0.0f;
    for (std::size_t j = 0; j < n; ++j) mean += xr[j];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      const float d = xr[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + eps_);
    inv_std(i) = inv;
    float* nr = normalized.row(i);
    float* yr = y.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      nr[j] = (xr[j] - mean) * inv;
      yr[j] = g[j] * nr[j] + b[j];
    }
  }
  if (train) {
    normalized_ = std::move(normalized);
    inv_std_ = std::move(inv_std);
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  CLPP_CHECK_MSG(!normalized_.empty(), "LayerNorm::backward without forward");
  const std::size_t rows = normalized_.rows();
  const std::size_t n = normalized_.cols();
  CLPP_CHECK(grad_out.shape() == normalized_.shape());
  Tensor grad_in({rows, n});
  const float* g = gamma.value.data();
  float* dgamma = gamma.grad.data();
  float* dbeta = beta.grad.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* go = grad_out.row(i);
    const float* xh = normalized_.row(i);
    float* gi = grad_in.row(i);
    // dL/dx̂ = go * gamma; then the standard LayerNorm input gradient:
    // dx = (1/σ) (dx̂ - mean(dx̂) - x̂ * mean(dx̂ ∘ x̂)).
    float sum_dxhat = 0.0f;
    float sum_dxhat_xhat = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      const float dxhat = go[j] * g[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xh[j];
      dgamma[j] += go[j] * xh[j];
      dbeta[j] += go[j];
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    const float inv_std = inv_std_(i);
    for (std::size_t j = 0; j < n; ++j) {
      const float dxhat = go[j] * g[j];
      gi[j] = inv_std * (dxhat - sum_dxhat * inv_n - xh[j] * sum_dxhat_xhat * inv_n);
    }
  }
  return grad_in;
}

void LayerNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

}  // namespace clpp::nn
