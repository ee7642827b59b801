// PragFormer: transformer encoder + two-dense-layer classification head
// (§4 of the paper).
//
// The head follows §4.3 exactly: two dense layers with a ReLU between
// them, dropout for regularization, and a softmax over two classes. The
// encoder can be initialized fresh or restored from an MLM-pretrained
// checkpoint (the DeepSCC transfer of §4.1, reproduced in miniature).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/transformer.h"

namespace clpp::core {

/// Full model configuration.
struct PragFormerConfig {
  nn::EncoderConfig encoder;
  std::size_t head_hidden = 0;  // 0 -> encoder.dim
  float head_dropout = 0.1f;
};

/// The PragFormer classification model.
class PragFormer {
 public:
  PragFormer(const PragFormerConfig& config, Rng& rng);

  /// Computes [batch, 2] logits for a token batch. `attention`, when
  /// non-null, receives the last encoder block's attention probabilities
  /// [B*H, S, S]. With train=false the model is not written.
  Tensor logits(const nn::TokenBatch& batch, bool train,
                Tensor* attention = nullptr) const;

  /// Backpropagates from dL/dlogits through head and encoder; follows a
  /// logits(batch, true).
  void backward(const Tensor& grad_logits);

  /// P(positive) per sample for a batch (eval mode).
  std::vector<float> predict_proba(const nn::TokenBatch& batch) const;

  /// All trainable parameters (encoder + head).
  std::vector<nn::Parameter*> parameters();

  /// Restores encoder parameters from an MLM checkpoint map (non-strict:
  /// the head stays freshly initialized). Returns #tensors restored.
  std::size_t load_pretrained_encoder(const std::map<std::string, Tensor>& checkpoint);

  const nn::TransformerEncoder& encoder() const { return encoder_; }
  const PragFormerConfig& config() const { return config_; }

 private:
  PragFormerConfig config_;
  nn::TransformerEncoder encoder_;
  nn::Linear head1_;
  nn::ReLU relu_;
  nn::Dropout head_drop_;
  nn::Linear head2_;
  // Geometry of the training forward, for backward.
  mutable std::size_t batch_ = 0;
  mutable std::size_t seq_ = 0;
};

}  // namespace clpp::core
