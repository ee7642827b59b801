// Layer abstraction with explicit forward/backward.
//
// CLPP's NN substrate uses layer-wise manual backpropagation rather than a
// taped autograd: a training forward (train=true) caches exactly the
// activations its gradient needs, which keeps memory predictable and the
// code auditable. A layer holds *one* in-flight activation set — callers
// must pair each training forward with at most one backward before the
// next training forward (the trainer does).
//
// An evaluation forward (train=false) writes no member: it is a pure
// function of the weights, so any number of threads may run it on one
// model at once. Only training needs exclusive access.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace clpp::nn {

/// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::size_t numel() const { return value.numel(); }
};

/// Base class for differentiable modules operating on rank-2 activations
/// shaped [rows, features] (rows is typically batch*seq).
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output. `train` enables stochastic behaviour
  /// (dropout) and records the backward caches; evaluation passes must use
  /// train=false, which records nothing.
  virtual Tensor forward(const Tensor& x, bool train) const = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must follow a forward(x, true) on the same activation.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends pointers to this layer's parameters (default: none).
  virtual void collect_parameters(std::vector<Parameter*>& out);
};

/// Total number of scalar parameters.
std::size_t parameter_count(const std::vector<Parameter*>& params);

/// Sets every parameter gradient to zero.
void zero_gradients(const std::vector<Parameter*>& params);

}  // namespace clpp::nn
