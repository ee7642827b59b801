// Fully-connected (dense) layer: y = x W + b.
#pragma once

#include "nn/layer.h"
#include "support/rng.h"

namespace clpp::nn {

/// Dense layer with Xavier-uniform initialized weight [in, out] and zero
/// bias [out].
class Linear : public Layer {
 public:
  /// `name` prefixes parameter names ("<name>.weight", "<name>.bias").
  Linear(std::string name, std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) const override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  std::size_t in_features() const { return weight.value.dim(0); }
  std::size_t out_features() const { return weight.value.dim(1); }

  Parameter weight;
  Parameter bias;

 private:
  mutable Tensor input_;  // training forward's input
};

}  // namespace clpp::nn
