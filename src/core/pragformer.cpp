#include "core/pragformer.h"

#include "nn/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stopwatch.h"

namespace clpp::core {

namespace {
std::size_t head_width(const PragFormerConfig& config) {
  return config.head_hidden == 0 ? config.encoder.dim : config.head_hidden;
}
}  // namespace

PragFormer::PragFormer(const PragFormerConfig& config, Rng& rng)
    : config_(config),
      encoder_(config.encoder, rng),
      head1_("head.fc1", config.encoder.dim, head_width(config), rng),
      head_drop_(config.head_dropout, rng),
      head2_("head.fc2", head_width(config), 2, rng) {}

Tensor PragFormer::logits(const nn::TokenBatch& batch, bool train,
                          Tensor* attention) const {
  if (train) {
    batch_ = batch.batch;
    seq_ = batch.seq;
  }
  Tensor hidden = encoder_.forward(batch, train, attention);
  Tensor pooled = nn::pooled_cls(hidden, batch.batch, batch.seq);
  Tensor h = head1_.forward(pooled, train);
  h = relu_.forward(h, train);
  h = head_drop_.forward(h, train);
  return head2_.forward(h, train);
}

void PragFormer::backward(const Tensor& grad_logits) {
  CLPP_CHECK_MSG(batch_ > 0, "PragFormer::backward without logits");
  Tensor g = head2_.backward(grad_logits);
  g = head_drop_.backward(g);
  g = relu_.backward(g);
  g = head1_.backward(g);
  g = nn::scatter_cls_grad(g, batch_, seq_);
  encoder_.backward(g);
}

std::vector<float> PragFormer::predict_proba(const nn::TokenBatch& batch) const {
  CLPP_TRACE_SPAN_ARG("infer.predict", batch.batch);
  const Stopwatch clock;
  std::vector<float> probs = nn::positive_probabilities(logits(batch, /*train=*/false));
  if (obs::enabled()) {
    static obs::Histogram& latency =
        obs::metrics().histogram("clpp.infer.latency_us");
    static obs::Counter& requests = obs::metrics().counter("clpp.infer.requests");
    static obs::Counter& rows = obs::metrics().counter("clpp.infer.rows");
    latency.record(clock.seconds() * 1e6);
    requests.add(1);
    rows.add(probs.size());
  }
  return probs;
}

std::vector<nn::Parameter*> PragFormer::parameters() {
  std::vector<nn::Parameter*> params;
  encoder_.collect_parameters(params);
  head1_.collect_parameters(params);
  head2_.collect_parameters(params);
  return params;
}

std::size_t PragFormer::load_pretrained_encoder(
    const std::map<std::string, Tensor>& checkpoint) {
  std::vector<nn::Parameter*> params;
  encoder_.collect_parameters(params);
  return nn::restore_parameters(checkpoint, params, /*strict=*/false);
}

}  // namespace clpp::core
