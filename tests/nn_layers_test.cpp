// Behavioural unit tests for NN layers, optimizer, checkpointing, and MLM
// masking (gradient correctness is covered by nn_gradcheck_test).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/checkpoint.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlm.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "tensor/ops.h"

namespace clpp::nn {
namespace {

TEST(Linear, OutputShapeAndBias) {
  Rng rng(1);
  Linear layer("fc", 3, 2, rng);
  layer.weight.value.zero();
  layer.bias.value(0) = 5.0f;
  layer.bias.value(1) = -1.0f;
  const Tensor y = layer.forward(Tensor({4, 3}), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{4, 2}));
  EXPECT_FLOAT_EQ(y(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(y(2, 1), -1.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(2);
  Linear layer("fc", 3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({4, 5}), false), InvalidArgument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear layer("fc", 3, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({4, 2})), InvalidArgument);
  // An evaluation forward records nothing for backward to read.
  layer.forward(Tensor({4, 3}), false);
  EXPECT_THROW(layer.backward(Tensor({4, 2})), InvalidArgument);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(4);
  LayerNorm ln("ln", 8);
  const Tensor x = Tensor::randn({5, 8}, rng, 3.0f, 2.0f);
  const Tensor y = ln.forward(x, false);
  for (std::size_t i = 0; i < 5; ++i) {
    float mean = 0, var = 0;
    for (std::size_t j = 0; j < 8; ++j) mean += y(i, j);
    mean /= 8;
    for (std::size_t j = 0; j < 8; ++j) var += (y(i, j) - mean) * (y(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayerNorm, BackwardAfterEvalForwardThrows) {
  Rng rng(4);
  LayerNorm ln("ln", 8);
  ln.forward(Tensor::randn({5, 8}, rng), false);
  EXPECT_THROW(ln.backward(Tensor({5, 8})), InvalidArgument);
}

TEST(Dropout, IdentityInEval) {
  Rng rng(5);
  Dropout drop(0.5f, rng);
  const Tensor x = Tensor::randn({10, 10}, rng);
  EXPECT_TRUE(drop.forward(x, false).allclose(x, 0.0f));
}

TEST(Dropout, PreservesExpectationInTrain) {
  Rng rng(6);
  Dropout drop(0.3f, rng);
  const Tensor x = Tensor::full({100, 100}, 1.0f);
  const Tensor y = drop.forward(x, true);
  EXPECT_NEAR(y.mean(), 1.0f, 0.03f);
  // Survivors are scaled by 1/(1-p).
  for (float v : y.values()) EXPECT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.7f) < 1e-5f);
}

TEST(Dropout, MaskAppliedToBackward) {
  Rng rng(7);
  Dropout drop(0.5f, rng);
  const Tensor x = Tensor::full({20, 20}, 1.0f);
  const Tensor y = drop.forward(x, true);
  const Tensor g = drop.backward(Tensor::full({20, 20}, 1.0f));
  for (std::size_t i = 0; i < y.numel(); ++i)
    EXPECT_FLOAT_EQ(g(i), y(i));  // same mask, same scaling
}

TEST(Dropout, RejectsRateOne) {
  Rng rng(8);
  EXPECT_THROW(Dropout(1.0f, rng), InvalidArgument);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(9);
  SequenceEmbedding emb("e", 10, 4, 3, rng);
  TokenBatch batch;
  batch.batch = 1;
  batch.seq = 2;
  batch.ids = {7, 7};
  batch.lengths = {2};
  const Tensor out = emb.forward(batch);
  // Same token at different positions differs by the position embedding.
  for (std::size_t j = 0; j < 3; ++j) {
    const float diff = out(0, j) - out(1, j);
    const float want = emb.position.value(0, j) - emb.position.value(1, j);
    EXPECT_NEAR(diff, want, 1e-6f);
  }
}

TEST(Embedding, RejectsOutOfVocabIds) {
  Rng rng(10);
  SequenceEmbedding emb("e", 10, 4, 3, rng);
  TokenBatch batch;
  batch.batch = 1;
  batch.seq = 1;
  batch.ids = {10};
  batch.lengths = {1};
  EXPECT_THROW(emb.forward(batch), InvalidArgument);
}

TEST(Embedding, GradAccumulatesPerToken) {
  Rng rng(11);
  SequenceEmbedding emb("e", 5, 4, 2, rng);
  TokenBatch batch;
  batch.batch = 1;
  batch.seq = 3;
  batch.ids = {2, 2, 4};
  batch.lengths = {3};
  emb.forward(batch);
  Tensor grad = Tensor::full({3, 2}, 1.0f);
  emb.backward(grad, batch);
  EXPECT_FLOAT_EQ(emb.token.grad(2, 0), 2.0f);  // token 2 appears twice
  EXPECT_FLOAT_EQ(emb.token.grad(4, 0), 1.0f);
  EXPECT_FLOAT_EQ(emb.token.grad(0, 0), 0.0f);
}

TEST(Attention, PaddingKeysAreInert) {
  Rng rng(12);
  const std::size_t D = 8;
  MultiHeadSelfAttention attn("a", D, 2, rng);
  // Two samples with identical valid prefix; second has extra garbage rows
  // beyond its length. Valid-position outputs must be identical.
  Tensor x({2 * 4, D});
  Rng fill(99);
  for (std::size_t s = 0; s < 2; ++s)
    for (std::size_t j = 0; j < D; ++j) {
      const float v = fill.normal();
      x(0 * 4 * D + s * D + j) = v;
      x(1 * 4 * D + s * D + j) = v;
    }
  for (std::size_t s = 2; s < 4; ++s)
    for (std::size_t j = 0; j < D; ++j) x((4 + s) * D + j) = 1e3f;  // garbage
  const std::vector<int> lengths = {2, 2};
  const Tensor y = attn.forward(x, 2, 4, lengths, false);
  for (std::size_t s = 0; s < 2; ++s)
    for (std::size_t j = 0; j < D; ++j)
      EXPECT_NEAR(y(s * D + j), y((4 + s) * D + j), 1e-4f);
}

TEST(Attention, ProbabilitiesRowsSumToOne) {
  Rng rng(13);
  MultiHeadSelfAttention attn("a", 8, 4, rng);
  const Tensor x = Tensor::randn({6, 8}, rng);
  const std::vector<int> lengths = {6};
  Tensor probs;
  attn.forward(x, 1, 6, lengths, true, &probs);
  EXPECT_EQ(probs.shape(), (std::vector<std::size_t>{4, 6, 6}));
  for (std::size_t h = 0; h < 4; ++h)
    for (std::size_t s = 0; s < 6; ++s) {
      float total = 0;
      for (std::size_t t = 0; t < 6; ++t) total += probs(h, s, t);
      EXPECT_NEAR(total, 1.0f, 1e-5f);
    }
  // An evaluation forward hands back the same map.
  Tensor eval_probs;
  attn.forward(x, 1, 6, lengths, false, &eval_probs);
  EXPECT_TRUE(eval_probs.allclose(probs, 0.0f));
}

TEST(Attention, PaddedKeysGetZeroProbability) {
  Rng rng(14);
  MultiHeadSelfAttention attn("a", 8, 2, rng);
  const std::vector<int> lengths = {3, 5};
  Tensor probs;
  attn.forward(Tensor::randn({2 * 5, 8}, rng), 2, 5, lengths, false, &probs);
  for (std::size_t bh = 0; bh < 4; ++bh)
    for (std::size_t s = 0; s < 5; ++s)
      for (std::size_t t = static_cast<std::size_t>(lengths[bh / 2]); t < 5; ++t)
        EXPECT_EQ(probs(bh, s, t), 0.0f);
}

TEST(Attention, BackwardAfterEvalForwardThrows) {
  Rng rng(13);
  MultiHeadSelfAttention attn("a", 8, 4, rng);
  const std::vector<int> lengths = {6};
  attn.forward(Tensor::randn({6, 8}, rng), 1, 6, lengths, false);
  EXPECT_THROW(attn.backward(Tensor({6, 8})), InvalidArgument);
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(14);
  EXPECT_THROW(MultiHeadSelfAttention("a", 10, 3, rng), InvalidArgument);
}

TEST(Encoder, OutputGeometry) {
  Rng rng(15);
  EncoderConfig cfg;
  cfg.vocab_size = 20;
  cfg.max_seq = 8;
  cfg.dim = 16;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.ffn_dim = 32;
  TransformerEncoder encoder(cfg, rng);
  TokenBatch batch;
  batch.batch = 3;
  batch.seq = 5;
  batch.ids.assign(15, 1);
  batch.lengths = {5, 2, 4};
  const Tensor h = encoder.forward(batch, false);
  EXPECT_EQ(h.shape(), (std::vector<std::size_t>{15, 16}));
  const Tensor pooled = pooled_cls(h, 3, 5);
  EXPECT_EQ(pooled.shape(), (std::vector<std::size_t>{3, 16}));
}

TEST(Encoder, RejectsOverlongSequence) {
  Rng rng(16);
  EncoderConfig cfg;
  cfg.vocab_size = 20;
  cfg.max_seq = 4;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_dim = 8;
  TransformerEncoder encoder(cfg, rng);
  TokenBatch batch;
  batch.batch = 1;
  batch.seq = 5;
  batch.ids.assign(5, 1);
  batch.lengths = {5};
  EXPECT_THROW(encoder.forward(batch, false), InvalidArgument);
}

TEST(Encoder, ConfigValidation) {
  EncoderConfig cfg;
  cfg.vocab_size = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.vocab_size = 10;
  cfg.dim = 10;
  cfg.heads = 3;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(Encoder, ParameterCountMatchesArchitecture) {
  Rng rng(17);
  EncoderConfig cfg;
  cfg.vocab_size = 100;
  cfg.max_seq = 16;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_dim = 12;
  TransformerEncoder encoder(cfg, rng);
  std::vector<Parameter*> params;
  encoder.collect_parameters(params);
  // embeddings: 100*8 + 16*8; block: 2 LN (2*8 each) + 4 proj (8*8+8 each)
  // + ffn1 (8*12+12) + ffn2 (12*8+8); final LN 2*8.
  const std::size_t expected = 100 * 8 + 16 * 8 + 2 * 16 + 4 * 72 + (96 + 12) +
                               (96 + 8) + 16;
  EXPECT_EQ(parameter_count(params), expected);
}

TEST(PooledCls, ScatterIsAdjoint) {
  Rng rng(18);
  const Tensor g = Tensor::randn({2, 3}, rng);
  const Tensor scattered = scatter_cls_grad(g, 2, 4);
  EXPECT_EQ(scattered.shape(), (std::vector<std::size_t>{8, 3}));
  EXPECT_FLOAT_EQ(scattered(0, 0), g(0, 0));
  EXPECT_FLOAT_EQ(scattered(4, 2), g(1, 2));
  EXPECT_FLOAT_EQ(scattered(1, 0), 0.0f);
}

TEST(Loss, PositiveProbabilitiesMatchSoftmax) {
  Tensor logits = Tensor::from({2, 2}, {0.0f, 0.0f, 1.0f, 3.0f});
  const auto probs = positive_probabilities(logits);
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
  EXPECT_NEAR(probs[1], 1.0f / (1.0f + std::exp(-2.0f)), 1e-5f);
}

TEST(Loss, AllIgnoredYieldsZero) {
  Tensor logits = Tensor::from({2, 2}, {1, 2, 3, 4});
  const std::vector<std::int32_t> labels = {SoftmaxCrossEntropy::kIgnore,
                                            SoftmaxCrossEntropy::kIgnore};
  SoftmaxCrossEntropy loss;
  EXPECT_FLOAT_EQ(loss.forward(logits, labels), 0.0f);
  EXPECT_FLOAT_EQ(loss.backward().sum(), 0.0f);
}

TEST(Loss, RejectsBadLabel) {
  Tensor logits({1, 2});
  const std::vector<std::int32_t> labels = {2};
  SoftmaxCrossEntropy loss;
  EXPECT_THROW(loss.forward(logits, labels), InvalidArgument);
}

TEST(AdamW, MovesAgainstGradient) {
  Parameter p("w", Tensor::full({4}, 1.0f));
  p.grad.fill(1.0f);
  AdamW opt(AdamWConfig{.lr = 0.1f, .weight_decay = 0.0f});
  opt.step({&p});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(p.value(i), 1.0f);
}

TEST(AdamW, WeightDecayShrinksRank2Only) {
  Parameter w("w", Tensor::full({2, 2}, 1.0f));
  Parameter b("b", Tensor::full({2}, 1.0f));
  // No gradient signal; only decay acts.
  AdamW opt(AdamWConfig{.lr = 0.1f, .weight_decay = 0.5f});
  opt.step({&w, &b});
  EXPECT_LT(w.value(0), 1.0f);
  EXPECT_FLOAT_EQ(b.value(0), 1.0f);
}

TEST(AdamW, DetectsParameterListChange) {
  Parameter a("a", Tensor({2}));
  Parameter b("b", Tensor({2}));
  AdamW opt;
  opt.step({&a});
  EXPECT_THROW(opt.step({&a, &b}), InvalidArgument);
}

TEST(ClipGradientNorm, ScalesDownOnly) {
  Parameter p("w", Tensor({2}));
  p.grad(0) = 3.0f;
  p.grad(1) = 4.0f;
  const double norm = clip_gradient_norm({&p}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(std::sqrt(squared_norm(p.grad)), 1.0, 1e-5);
  // Below the cap: untouched.
  p.grad(0) = 0.3f;
  p.grad(1) = 0.4f;
  clip_gradient_norm({&p}, 1.0);
  EXPECT_FLOAT_EQ(p.grad(0), 0.3f);
}

TEST(Schedule, WarmupThenDecay) {
  WarmupLinearSchedule sched(1.0f, 10, 110, 0.1f);
  EXPECT_NEAR(sched.lr_at(0), 0.1f, 1e-6f);
  EXPECT_NEAR(sched.lr_at(9), 1.0f, 1e-6f);
  EXPECT_GT(sched.lr_at(10), sched.lr_at(60));
  EXPECT_NEAR(sched.lr_at(1000), 0.1f, 1e-6f);
}

TEST(Checkpoint, SaveRestoreRoundTrip) {
  Rng rng(19);
  Linear a("fc", 3, 2, rng);
  const Tensor original = a.weight.value;
  const std::string path =
      (std::filesystem::temp_directory_path() / "clpp_ckpt_test.bin").string();
  std::vector<Parameter*> params;
  a.collect_parameters(params);
  save_checkpoint(path, params);

  Rng rng2(999);
  Linear b("fc", 3, 2, rng2);
  ASSERT_FALSE(b.weight.value.allclose(original, 1e-6f));
  std::vector<Parameter*> params_b;
  b.collect_parameters(params_b);
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(restore_parameters(loaded, params_b, /*strict=*/true), 2u);
  EXPECT_TRUE(b.weight.value.allclose(original, 0.0f));
  std::remove(path.c_str());
}

TEST(Checkpoint, PartialRestoreNonStrict) {
  Rng rng(20);
  Linear enc("encoder.fc", 3, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "clpp_ckpt_partial.bin").string();
  std::vector<Parameter*> params;
  enc.collect_parameters(params);
  save_checkpoint(path, params);

  Linear enc2("encoder.fc", 3, 2, rng);
  Linear head("head.fc", 2, 2, rng);
  std::vector<Parameter*> both;
  enc2.collect_parameters(both);
  head.collect_parameters(both);
  const auto loaded = load_checkpoint(path);
  EXPECT_THROW(restore_parameters(loaded, both, /*strict=*/true), ParseError);
  EXPECT_EQ(restore_parameters(loaded, both, /*strict=*/false), 2u);
  std::remove(path.c_str());
}

TEST(Mlm, MaskingRespectsSpecialAndPad) {
  Rng rng(21);
  TokenBatch batch;
  batch.batch = 4;
  batch.seq = 20;
  batch.ids.assign(80, 5);
  for (std::size_t b = 0; b < 4; ++b) batch.ids[b * 20] = 1;  // CLS-like special
  batch.lengths = {20, 20, 10, 10};
  MlmVocabInfo vocab{.mask_id = 3, .special_below = 4, .vocab_size = 50};
  const MaskedBatch masked = mask_tokens(batch, vocab, rng, 0.5f);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(masked.inputs.ids[b * 20], 1);  // specials never masked
    EXPECT_EQ(masked.targets[b * 20], -1);
    for (std::size_t s = batch.lengths[b]; s < 20; ++s)
      EXPECT_EQ(masked.targets[b * 20 + s], -1);  // pads never masked
  }
  // Roughly half of the maskable positions were selected.
  std::size_t masked_count = 0;
  for (auto t : masked.targets) masked_count += (t >= 0);
  EXPECT_GT(masked_count, 15u);
  EXPECT_LT(masked_count, 45u);
}

TEST(Mlm, TargetsHoldOriginalIds) {
  Rng rng(22);
  TokenBatch batch;
  batch.batch = 1;
  batch.seq = 30;
  batch.ids.resize(30);
  for (std::size_t i = 0; i < 30; ++i) batch.ids[i] = static_cast<std::int32_t>(10 + i);
  batch.lengths = {30};
  MlmVocabInfo vocab{.mask_id = 3, .special_below = 4, .vocab_size = 100};
  const MaskedBatch masked = mask_tokens(batch, vocab, rng, 0.4f);
  for (std::size_t i = 0; i < 30; ++i)
    if (masked.targets[i] >= 0) {
      EXPECT_EQ(masked.targets[i], batch.ids[i]);
    }
}

}  // namespace
}  // namespace clpp::nn
