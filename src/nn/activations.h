// Pointwise activation layers (ReLU, GELU) and dropout.
#pragma once

#include "nn/layer.h"
#include "support/rng.h"

namespace clpp::nn {

/// Rectified linear unit (used in PragFormer's FC head, paper §4.3).
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  mutable Tensor input_;
};

/// Gaussian error linear unit (tanh approximation), used inside the
/// transformer's position-wise FFN as in RoBERTa.
class Gelu : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) const override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  mutable Tensor input_;
};

/// Inverted dropout: scales surviving activations by 1/(1-p) during
/// training; identity at evaluation. Paper §4.3 uses dropout as the
/// regularization strategy.
class Dropout : public Layer {
 public:
  /// `rng` must outlive the layer; `p` in [0, 1).
  Dropout(float p, Rng& rng);

  Tensor forward(const Tensor& x, bool train) const override;
  Tensor backward(const Tensor& grad_out) override;

  float rate() const { return p_; }

 private:
  float p_;
  Rng* rng_;
  mutable Tensor mask_;  // training forward's keep mask, scaled by 1/(1-p)
};

}  // namespace clpp::nn
