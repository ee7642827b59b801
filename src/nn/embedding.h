// Token + learned positional embeddings.
#pragma once

#include "nn/batch.h"
#include "nn/layer.h"
#include "support/rng.h"

namespace clpp::nn {

/// Maps a TokenBatch to activations [B*S, d] as token_emb[id] + pos_emb[s].
///
/// Not a Layer (its input is ids, not a tensor). It keeps no activation
/// state: backward receives the ids the forward embedded.
class SequenceEmbedding {
 public:
  SequenceEmbedding(std::string name, std::size_t vocab_size, std::size_t max_seq,
                    std::size_t dim, Rng& rng);

  /// Embeds the batch. Padded positions receive embeddings too; downstream
  /// masking makes them inert.
  Tensor forward(const TokenBatch& batch) const;

  /// Accumulates gradients into the token/position tables; `batch` is the
  /// one the forward embedded.
  void backward(const Tensor& grad_out, const TokenBatch& batch);

  void collect_parameters(std::vector<Parameter*>& out);

  std::size_t vocab_size() const { return token.value.dim(0); }
  std::size_t max_seq() const { return position.value.dim(0); }
  std::size_t dim() const { return token.value.dim(1); }

  Parameter token;     // [vocab, dim]
  Parameter position;  // [max_seq, dim]
};

}  // namespace clpp::nn
