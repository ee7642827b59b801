#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/strings.h"

namespace clpp::core {

std::vector<TokenAttention> Explanation::top_tokens(std::size_t k) const {
  std::vector<TokenAttention> sorted;
  for (const TokenAttention& t : attention)
    if (t.position != 0) sorted.push_back(t);
  std::sort(sorted.begin(), sorted.end(),
            [](const TokenAttention& a, const TokenAttention& b) {
              return a.weight > b.weight;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

std::string Explanation::ascii() const {
  float max_weight = 1e-9f;
  for (const TokenAttention& t : attention) max_weight = std::max(max_weight, t.weight);
  std::ostringstream os;
  os << "p(positive) = " << fixed(p_positive, 3) << "  (attention of <cls>, layer "
     << layer << ", head-averaged)\n";
  for (const TokenAttention& t : attention) {
    const int bars = static_cast<int>(std::lround(24.0f * t.weight / max_weight));
    os << pad_left(fixed(t.weight, 3), 7) << ' '
       << pad_right(t.token, 14).substr(0, 14) << ' '
       << repeated("#", static_cast<std::size_t>(bars)) << '\n';
  }
  return os.str();
}

Explanation explain_prediction(const PragFormer& model,
                               const tokenize::Vocabulary& vocabulary,
                               tokenize::Representation rep, std::size_t max_len,
                               const std::string& code) {
  Explanation out;
  out.tokens.push_back("<cls>");
  for (const std::string& token : tokenize::tokenize(code, rep))
    out.tokens.push_back(token);
  if (out.tokens.size() > max_len) out.tokens.resize(max_len);

  std::vector<std::string> body(out.tokens.begin() + 1, out.tokens.end());
  const auto encoded = vocabulary.encode(body, max_len);
  nn::TokenBatch batch;
  batch.batch = 1;
  batch.seq = encoded.size();
  batch.ids = encoded;
  batch.lengths = {static_cast<int>(encoded.size())};

  Tensor probs;
  out.p_positive =
      nn::positive_probabilities(model.logits(batch, /*train=*/false, &probs))[0];
  out.layer = model.config().encoder.layers - 1;
  // probs is the last layer's [heads, seq, seq] for batch = 1; take the
  // <cls> row (query 0) averaged over heads.
  const std::size_t heads = probs.dim(0);
  const std::size_t seq = probs.dim(1);
  CLPP_CHECK(seq == batch.seq);
  out.attention.resize(seq);
  for (std::size_t t = 0; t < seq; ++t) {
    float total = 0.0f;
    for (std::size_t h = 0; h < heads; ++h) total += probs(h, 0, t);
    out.attention[t] = TokenAttention{out.tokens[t], t,
                                      total / static_cast<float>(heads)};
  }
  return out;
}

}  // namespace clpp::core
