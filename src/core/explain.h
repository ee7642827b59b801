// Prediction interpretability: attention maps over code tokens.
//
// §4.1 of the paper motivates self-attention by the influence one variable
// or statement exerts on another's contextualized vector. This module
// makes that inspectable: the forward pass hands back the last layer's
// attention maps, and this module extracts how much the classification
// anchor (the <cls> position, whose vector feeds the FC head) attends to
// each input token, averaged over heads.
#pragma once

#include <string>
#include <vector>

#include "core/pragformer.h"
#include "tokenize/representation.h"
#include "tokenize/vocabulary.h"

namespace clpp::core {

/// Attention received by one input token from the <cls> query.
struct TokenAttention {
  std::string token;
  std::size_t position = 0;  // 0 is <cls> itself
  float weight = 0.0f;       // averaged over heads of the inspected layer
};

/// Explanation of one prediction.
struct Explanation {
  float p_positive = 0.0f;
  std::vector<std::string> tokens;          // model input, <cls> first
  std::vector<TokenAttention> attention;    // one entry per input token
  std::size_t layer = 0;                    // which encoder layer was read

  /// The `k` tokens the classifier attended to most (excluding <cls>).
  std::vector<TokenAttention> top_tokens(std::size_t k) const;

  /// Terminal rendering: tokens with attention bars.
  std::string ascii() const;
};

/// Runs `code` through `model` and reads the <cls>-row attention of the
/// last encoder layer (averaged over heads). `model` must share
/// `vocabulary`/`rep`/`max_len` with its training pipeline.
Explanation explain_prediction(const PragFormer& model,
                               const tokenize::Vocabulary& vocabulary,
                               tokenize::Representation rep, std::size_t max_len,
                               const std::string& code);

}  // namespace clpp::core
