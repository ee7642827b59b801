#include "nn/embedding.h"

#include <cstring>

namespace clpp::nn {

SequenceEmbedding::SequenceEmbedding(std::string name, std::size_t vocab_size,
                                     std::size_t max_seq, std::size_t dim, Rng& rng)
    : token(name + ".token", Tensor::randn({vocab_size, dim}, rng, 0.0f, 0.02f)),
      position(name + ".position", Tensor::randn({max_seq, dim}, rng, 0.0f, 0.02f)) {}

Tensor SequenceEmbedding::forward(const TokenBatch& batch) const {
  batch.validate(vocab_size());
  CLPP_CHECK_MSG(batch.seq <= max_seq(),
                 "sequence length " << batch.seq << " exceeds max " << max_seq());
  const std::size_t d = dim();
  Tensor out({batch.batch * batch.seq, d});
  for (std::size_t b = 0; b < batch.batch; ++b) {
    for (std::size_t s = 0; s < batch.seq; ++s) {
      const std::size_t row = b * batch.seq + s;
      const float* tok = token.value.row(static_cast<std::size_t>(batch.id(b, s)));
      const float* pos = position.value.row(s);
      float* o = out.row(row);
      for (std::size_t j = 0; j < d; ++j) o[j] = tok[j] + pos[j];
    }
  }
  return out;
}

void SequenceEmbedding::backward(const Tensor& grad_out, const TokenBatch& batch) {
  const std::size_t d = dim();
  CLPP_CHECK(grad_out.rank() == 2 && grad_out.cols() == d &&
             grad_out.rows() == batch.batch * batch.seq);
  for (std::size_t b = 0; b < batch.batch; ++b) {
    // Gradients from padded positions are zeroed by the masked loss /
    // pooling upstream, so accumulating them unconditionally is safe and
    // branch-free.
    for (std::size_t s = 0; s < batch.seq; ++s) {
      const std::size_t row = b * batch.seq + s;
      const float* g = grad_out.row(row);
      float* gt = token.grad.row(static_cast<std::size_t>(batch.id(b, s)));
      float* gp = position.grad.row(s);
      for (std::size_t j = 0; j < d; ++j) {
        gt[j] += g[j];
        gp[j] += g[j];
      }
    }
  }
}

void SequenceEmbedding::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&token);
  out.push_back(&position);
}

}  // namespace clpp::nn
