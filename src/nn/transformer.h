// Transformer encoder: the backbone of PragFormer.
//
// Pre-LayerNorm variant (LN -> sublayer -> residual). The paper fine-tunes
// a post-LN RoBERTa; pre-LN is the standard choice when training from
// scratch at small scale because it keeps gradients well-conditioned
// without a long warmup — the substitution is recorded in DESIGN.md.
#pragma once

#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"

namespace clpp::nn {

/// Hyperparameters of the encoder stack.
struct EncoderConfig {
  std::size_t vocab_size = 0;
  std::size_t max_seq = 110;  // paper §4.3: longest snippet is 110 tokens
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn_dim = 128;
  float dropout = 0.1f;

  void validate() const;
};

/// One pre-LN encoder block: x + Attn(LN(x)), then h + FFN(LN(h)).
class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer(std::string name, const EncoderConfig& cfg, Rng& rng);

  /// `attention`, when non-null, receives the block's attention
  /// probabilities (see MultiHeadSelfAttention::forward).
  Tensor forward(const Tensor& x, std::size_t batch, std::size_t seq,
                 std::span<const int> lengths, bool train,
                 Tensor* attention = nullptr) const;
  Tensor backward(const Tensor& grad_out);
  void collect_parameters(std::vector<Parameter*>& out);

 private:
  LayerNorm ln1_;
  MultiHeadSelfAttention attn_;
  Dropout drop1_;
  LayerNorm ln2_;
  Linear ffn1_;
  Gelu gelu_;
  Linear ffn2_;
  Dropout drop2_;
};

/// Full encoder: embeddings -> N blocks -> final LayerNorm.
///
/// Produces contextualized activations [B*S, dim]; classification heads
/// pool these (see pooled_cls / scatter_cls_grad).
class TransformerEncoder {
 public:
  TransformerEncoder(const EncoderConfig& cfg, Rng& rng);

  /// Encodes a batch; returns activations [B*S, dim]. `attention`, when
  /// non-null, receives the last block's attention probabilities
  /// [B*H, S, S].
  Tensor forward(const TokenBatch& batch, bool train,
                 Tensor* attention = nullptr) const;

  /// Propagates gradients back to all parameters including embeddings.
  void backward(const Tensor& grad_out);

  void collect_parameters(std::vector<Parameter*>& out);
  const EncoderConfig& config() const { return cfg_; }

 private:
  EncoderConfig cfg_;
  SequenceEmbedding embedding_;
  Dropout embed_drop_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> blocks_;
  LayerNorm final_ln_;
  mutable TokenBatch batch_;  // training forward's ids, for backward
};

/// Extracts the first-token ([CLS]) row of each sample: [B*S, d] -> [B, d].
Tensor pooled_cls(const Tensor& activations, std::size_t batch, std::size_t seq);

/// Scatters a [B, d] gradient back into a zero [B*S, d] tensor at each
/// sample's CLS row (backward of pooled_cls).
Tensor scatter_cls_grad(const Tensor& grad_pooled, std::size_t batch, std::size_t seq);

}  // namespace clpp::nn
