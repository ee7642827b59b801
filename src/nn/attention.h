// Multi-head scaled-dot-product self-attention with padding masks.
#pragma once

#include <memory>

#include "nn/batch.h"
#include "nn/linear.h"

namespace clpp::nn {

/// Self-attention block: Q/K/V/O projections plus masked softmax attention.
///
/// Input and output are rank-2 activations [B*S, d]; the sequence geometry
/// (B, S, per-sample valid lengths) is supplied per forward call. Keys and
/// values at padded positions are excluded via the mask; padded query rows
/// produce don't-care outputs that downstream masked pooling ignores.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(std::string name, std::size_t dim, std::size_t heads, Rng& rng);

  /// Forward pass; `lengths.size() == batch`, each in [1, seq]. When
  /// `attention` is non-null it receives the attention probabilities,
  /// rank-3 [B*H, S, S] (interpretability tooling reads them).
  Tensor forward(const Tensor& x, std::size_t batch, std::size_t seq,
                 std::span<const int> lengths, bool train,
                 Tensor* attention = nullptr) const;

  /// Backward pass; returns dL/dx.
  Tensor backward(const Tensor& grad_out);

  void collect_parameters(std::vector<Parameter*>& out);

  std::size_t dim() const { return dim_; }
  std::size_t heads() const { return heads_; }
  std::size_t head_dim() const { return dim_ / heads_; }

 private:
  std::size_t dim_;
  std::size_t heads_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear o_proj_;

  // Training forward's state.
  mutable std::size_t batch_ = 0;
  mutable std::size_t seq_ = 0;
  mutable std::vector<int> lengths_;
  mutable Tensor q_, k_, v_;  // [B*S, d]
  mutable Tensor probs_;      // [B*H, S, S]
};

}  // namespace clpp::nn
