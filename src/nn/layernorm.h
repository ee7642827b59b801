// Layer normalization over the feature (last) dimension.
#pragma once

#include "nn/layer.h"

namespace clpp::nn {

/// y = gamma * (x - mean) / sqrt(var + eps) + beta, per row.
class LayerNorm : public Layer {
 public:
  LayerNorm(std::string name, std::size_t features, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) const override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  Parameter gamma;
  Parameter beta;

 private:
  float eps_;
  mutable Tensor normalized_;  // training forward's x̂
  mutable Tensor inv_std_;     // training forward's 1/σ per row
};

}  // namespace clpp::nn
