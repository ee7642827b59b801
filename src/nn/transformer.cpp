#include "nn/transformer.h"

#include "tensor/ops.h"

namespace clpp::nn {

void EncoderConfig::validate() const {
  CLPP_CHECK_MSG(vocab_size > 0, "vocab_size must be set");
  CLPP_CHECK_MSG(max_seq > 0, "max_seq must be positive");
  CLPP_CHECK_MSG(dim > 0 && heads > 0 && dim % heads == 0,
                 "dim must be a positive multiple of heads");
  CLPP_CHECK_MSG(layers > 0, "at least one encoder layer required");
  CLPP_CHECK_MSG(ffn_dim > 0, "ffn_dim must be positive");
  CLPP_CHECK_MSG(dropout >= 0.0f && dropout < 1.0f, "dropout must be in [0,1)");
}

TransformerEncoderLayer::TransformerEncoderLayer(std::string name,
                                                 const EncoderConfig& cfg, Rng& rng)
    : ln1_(name + ".ln1", cfg.dim),
      attn_(name + ".attn", cfg.dim, cfg.heads, rng),
      drop1_(cfg.dropout, rng),
      ln2_(name + ".ln2", cfg.dim),
      ffn1_(name + ".ffn1", cfg.dim, cfg.ffn_dim, rng),
      ffn2_(name + ".ffn2", cfg.ffn_dim, cfg.dim, rng),
      drop2_(cfg.dropout, rng) {}

Tensor TransformerEncoderLayer::forward(const Tensor& x, std::size_t batch,
                                        std::size_t seq, std::span<const int> lengths,
                                        bool train, Tensor* attention) const {
  Tensor h = x;
  {
    Tensor a = ln1_.forward(x, train);
    a = attn_.forward(a, batch, seq, lengths, train, attention);
    a = drop1_.forward(a, train);
    add_inplace(h, a);
  }
  Tensor y = h;
  {
    Tensor f = ln2_.forward(h, train);
    f = ffn1_.forward(f, train);
    f = gelu_.forward(f, train);
    f = ffn2_.forward(f, train);
    f = drop2_.forward(f, train);
    add_inplace(y, f);
  }
  return y;
}

Tensor TransformerEncoderLayer::backward(const Tensor& grad_out) {
  // FFN residual branch.
  Tensor g = drop2_.backward(grad_out);
  g = ffn2_.backward(g);
  g = gelu_.backward(g);
  g = ffn1_.backward(g);
  g = ln2_.backward(g);
  add_inplace(g, grad_out);  // residual: dL/dh = branch grad + passthrough

  // Attention residual branch.
  Tensor a = drop1_.backward(g);
  a = attn_.backward(a);
  a = ln1_.backward(a);
  add_inplace(a, g);
  return a;
}

void TransformerEncoderLayer::collect_parameters(std::vector<Parameter*>& out) {
  ln1_.collect_parameters(out);
  attn_.collect_parameters(out);
  ln2_.collect_parameters(out);
  ffn1_.collect_parameters(out);
  ffn2_.collect_parameters(out);
}

namespace {
const EncoderConfig& validated(const EncoderConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

TransformerEncoder::TransformerEncoder(const EncoderConfig& cfg, Rng& rng)
    : cfg_(validated(cfg)),
      embedding_("encoder.embed", cfg.vocab_size, cfg.max_seq, cfg.dim, rng),
      embed_drop_(cfg.dropout, rng),
      final_ln_("encoder.final_ln", cfg.dim) {
  blocks_.reserve(cfg.layers);
  for (std::size_t i = 0; i < cfg.layers; ++i)
    blocks_.push_back(std::make_unique<TransformerEncoderLayer>(
        "encoder.block" + std::to_string(i), cfg, rng));
}

Tensor TransformerEncoder::forward(const TokenBatch& batch, bool train,
                                  Tensor* attention) const {
  Tensor h = embedding_.forward(batch);
  if (train) batch_ = batch;
  h = embed_drop_.forward(h, train);
  for (const auto& block : blocks_)
    h = block->forward(h, batch.batch, batch.seq, batch.lengths, train, attention);
  return final_ln_.forward(h, train);
}

void TransformerEncoder::backward(const Tensor& grad_out) {
  CLPP_CHECK_MSG(batch_.batch > 0, "encoder backward without forward");
  Tensor g = final_ln_.backward(grad_out);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) g = (*it)->backward(g);
  g = embed_drop_.backward(g);
  embedding_.backward(g, batch_);
}

void TransformerEncoder::collect_parameters(std::vector<Parameter*>& out) {
  embedding_.collect_parameters(out);
  for (auto& block : blocks_) block->collect_parameters(out);
  final_ln_.collect_parameters(out);
}

Tensor pooled_cls(const Tensor& activations, std::size_t batch, std::size_t seq) {
  CLPP_CHECK_MSG(activations.rank() == 2 && activations.rows() == batch * seq,
                 "pooled_cls geometry mismatch");
  const std::size_t d = activations.cols();
  Tensor out({batch, d});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* src = activations.row(b * seq);
    float* dst = out.row(b);
    for (std::size_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  return out;
}

Tensor scatter_cls_grad(const Tensor& grad_pooled, std::size_t batch, std::size_t seq) {
  CLPP_CHECK_MSG(grad_pooled.rank() == 2 && grad_pooled.rows() == batch,
                 "scatter_cls_grad geometry mismatch");
  const std::size_t d = grad_pooled.cols();
  Tensor out({batch * seq, d});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* src = grad_pooled.row(b);
    float* dst = out.row(b * seq);
    for (std::size_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  return out;
}

}  // namespace clpp::nn
