// Finite-difference gradient checks for every differentiable module.
//
// Each check perturbs a sample of parameter entries (and input entries) by
// ±h, recomputes a scalar loss, and compares the numeric derivative with
// the analytic gradient produced by backward(). Every forward is a training
// forward (only those record what backward reads), and every config has
// dropout 0, so the loss is deterministic and central differences are exact
// up to float noise.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/transformer.h"

namespace clpp::nn {
namespace {

/// Scalar loss used to exercise backward paths: weighted sum of outputs.
/// Fixed weights make dL/dy analytic and nontrivial.
struct WeightedSumLoss {
  Tensor weights;

  explicit WeightedSumLoss(const std::vector<std::size_t>& shape, Rng& rng)
      : weights(Tensor::randn(shape, rng)) {}

  float value(const Tensor& y) const {
    float acc = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) acc += y(i) * weights(i);
    return acc;
  }

  Tensor grad() const { return weights; }
};

/// Relative error with a floor on the denominator: gradients whose true
/// value is (near) zero — e.g. the key-projection bias, which provably has
/// zero gradient because softmax is shift-invariant — show pure float noise
/// (~1e-5) in the central difference, so differences below the floor are
/// treated as agreement.
double rel_err(double got, double want) {
  return std::abs(got - want) / std::max({std::abs(got), std::abs(want), 5e-3});
}

/// Checks d(loss)/d(entry) for a sample of entries of `target` against the
/// analytic gradient in `analytic`, where `loss_fn` recomputes the loss
/// after mutations of target.
void check_entries(Tensor& target, const Tensor& analytic,
                   const std::function<float()>& loss_fn, std::size_t samples,
                   Rng& rng, double tolerance, const std::string& what,
                   float h = 1e-2f) {
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i = rng.index(target.numel());
    const float saved = target(i);
    target(i) = saved + h;
    const double up = loss_fn();
    target(i) = saved - h;
    const double down = loss_fn();
    target(i) = saved;
    const double numeric = (up - down) / (2.0 * h);
    const double got = analytic(i);
    EXPECT_LT(rel_err(got, numeric), tolerance)
        << what << " entry " << i << ": analytic " << got << " vs numeric " << numeric;
  }
}

std::vector<Parameter*> params_of(Linear& l) {
  std::vector<Parameter*> p;
  l.collect_parameters(p);
  return p;
}

TEST(GradCheck, LinearWeightsBiasInput) {
  Rng rng(101);
  Linear layer("fc", 5, 4, rng);
  Tensor x = Tensor::randn({6, 5}, rng);
  WeightedSumLoss loss({6, 4}, rng);
  auto run = [&] { return loss.value(layer.forward(x, true)); };

  run();
  for (Parameter* p : params_of(layer)) p->grad.zero();
  const Tensor dx = layer.backward(loss.grad());

  check_entries(layer.weight.value, layer.weight.grad, run, 10, rng, 2e-2, "W");
  check_entries(layer.bias.value, layer.bias.grad, run, 4, rng, 2e-2, "b");
  check_entries(x, dx, run, 10, rng, 2e-2, "x");
}

TEST(GradCheck, LayerNorm) {
  Rng rng(102);
  LayerNorm layer("ln", 6);
  // Non-trivial gamma/beta so their gradients are exercised.
  for (std::size_t i = 0; i < 6; ++i) {
    layer.gamma.value(i) = 0.5f + 0.2f * static_cast<float>(i);
    layer.beta.value(i) = 0.1f * static_cast<float>(i);
  }
  Tensor x = Tensor::randn({4, 6}, rng);
  WeightedSumLoss loss({4, 6}, rng);
  auto run = [&] { return loss.value(layer.forward(x, true)); };

  run();
  layer.gamma.grad.zero();
  layer.beta.grad.zero();
  const Tensor dx = layer.backward(loss.grad());

  check_entries(layer.gamma.value, layer.gamma.grad, run, 6, rng, 2e-2, "gamma");
  check_entries(layer.beta.value, layer.beta.grad, run, 6, rng, 2e-2, "beta");
  check_entries(x, dx, run, 12, rng, 2e-2, "x");
}

TEST(GradCheck, GeluInput) {
  Rng rng(103);
  Gelu layer;
  Tensor x = Tensor::randn({3, 5}, rng);
  WeightedSumLoss loss({3, 5}, rng);
  auto run = [&] { return loss.value(layer.forward(x, true)); };
  run();
  const Tensor dx = layer.backward(loss.grad());
  check_entries(x, dx, run, 12, rng, 2e-2, "x");
}

TEST(GradCheck, ReluInput) {
  Rng rng(104);
  ReLU layer;
  // Keep entries away from the kink at 0 where central differences lie.
  Tensor x = Tensor::randn({3, 5}, rng);
  for (float& v : x.values())
    if (std::abs(v) < 0.1f) v = 0.5f;
  WeightedSumLoss loss({3, 5}, rng);
  auto run = [&] { return loss.value(layer.forward(x, true)); };
  run();
  const Tensor dx = layer.backward(loss.grad());
  check_entries(x, dx, run, 12, rng, 2e-2, "x");
}

TEST(GradCheck, AttentionInputAndProjections) {
  Rng rng(105);
  const std::size_t B = 2, S = 5, D = 8;
  MultiHeadSelfAttention attn("attn", D, 2, rng);
  Tensor x = Tensor::randn({B * S, D}, rng);
  const std::vector<int> lengths = {5, 3};
  WeightedSumLoss loss({B * S, D}, rng);
  // Zero the loss weight on padded rows: their forward values are
  // don't-care by contract, so the loss must not read them.
  for (std::size_t s = 3; s < S; ++s)
    for (std::size_t j = 0; j < D; ++j) loss.weights((S + s) * D + j) = 0.0f;

  auto run = [&] { return loss.value(attn.forward(x, B, S, lengths, true)); };
  run();
  std::vector<Parameter*> params;
  attn.collect_parameters(params);
  zero_gradients(params);
  const Tensor dx = attn.backward(loss.grad());

  check_entries(x, dx, run, 16, rng, 3e-2, "x");
  for (Parameter* p : params)
    check_entries(p->value, p->grad, run, 6, rng, 3e-2, p->name);
}

TEST(GradCheck, EncoderLayerEndToEnd) {
  Rng rng(106);
  EncoderConfig cfg;
  cfg.vocab_size = 11;  // unused by the block itself but validated
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_dim = 12;
  cfg.dropout = 0.0f;
  TransformerEncoderLayer block("blk", cfg, rng);
  const std::size_t B = 2, S = 4;
  Tensor x = Tensor::randn({B * S, cfg.dim}, rng);
  const std::vector<int> lengths = {4, 2};
  WeightedSumLoss loss({B * S, cfg.dim}, rng);
  for (std::size_t s = 2; s < S; ++s)
    for (std::size_t j = 0; j < cfg.dim; ++j) loss.weights((S + s) * cfg.dim + j) = 0.0f;

  auto run = [&] { return loss.value(block.forward(x, B, S, lengths, true)); };
  run();
  std::vector<Parameter*> params;
  block.collect_parameters(params);
  zero_gradients(params);
  const Tensor dx = block.backward(loss.grad());

  check_entries(x, dx, run, 16, rng, 3e-2, "x");
  for (Parameter* p : params)
    check_entries(p->value, p->grad, run, 4, rng, 4e-2, p->name);
}

TEST(GradCheck, FullEncoderWithCrossEntropy) {
  Rng rng(107);
  EncoderConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq = 6;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.ffn_dim = 12;
  cfg.dropout = 0.0f;
  TransformerEncoder encoder(cfg, rng);
  Linear head("head", cfg.dim, 2, rng);

  TokenBatch batch;
  batch.batch = 2;
  batch.seq = 5;
  batch.ids = {1, 4, 7, 9, 2, 1, 5, 8, 0, 0};
  batch.lengths = {5, 3};
  const std::vector<std::int32_t> labels = {1, 0};

  SoftmaxCrossEntropy loss;
  auto run = [&] {
    Tensor hidden = encoder.forward(batch, true);
    Tensor pooled = pooled_cls(hidden, batch.batch, batch.seq);
    Tensor logits = head.forward(pooled, true);
    return loss.forward(logits, labels);
  };
  run();
  std::vector<Parameter*> params;
  encoder.collect_parameters(params);
  head.collect_parameters(params);
  zero_gradients(params);
  Tensor g = loss.backward();
  g = head.backward(g);
  g = scatter_cls_grad(g, batch.batch, batch.seq);
  encoder.backward(g);

  // Check a sample of entries in every parameter, embeddings included.
  // Deep stacks have noticeable curvature (verified: numeric estimates
  // converge to the analytic value as h -> 0), so use a smaller step.
  for (Parameter* p : params)
    check_entries(p->value, p->grad, run, 3, rng, 5e-2, p->name, 3e-3f);
}

TEST(GradCheck, CrossEntropyGradientMatchesFormula) {
  Rng rng(108);
  Tensor logits = Tensor::randn({3, 2}, rng);
  const std::vector<std::int32_t> labels = {1, 0, SoftmaxCrossEntropy::kIgnore};
  SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  const Tensor grad = loss.backward();
  // Ignored row contributes no gradient.
  EXPECT_EQ(grad(2, 0), 0.0f);
  EXPECT_EQ(grad(2, 1), 0.0f);
  // Active rows: (p - onehot)/2.
  const Tensor& probs = loss.probabilities();
  EXPECT_NEAR(grad(0, 1), (probs(0, 1) - 1.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad(1, 0), (probs(1, 0) - 1.0f) / 2.0f, 1e-6f);
}

}  // namespace
}  // namespace clpp::nn
