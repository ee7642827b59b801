// Unit tests for clpp::tensor (shapes, kernels, serialization).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "support/rng.h"
#include "tensor/io.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace clpp {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a(p, i) : a(i, p);
        const float bv = tb ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  return c;
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, RejectsZeroDimension) {
  EXPECT_THROW(Tensor({2, 0}), InvalidArgument);
}

TEST(Tensor, RejectsRankAboveThree) {
  EXPECT_THROW(Tensor({2, 2, 2, 2}), InvalidArgument);
}

TEST(Tensor, FromValidatesCount) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.0f}), InvalidArgument);
  const Tensor t = Tensor::from({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t(1, 1), 4.0f);
}

TEST(Tensor, RankThreeIndexing) {
  Tensor t({2, 3, 4});
  t(1, 2, 3) = 42.0f;
  EXPECT_EQ(t(1 * 12 + 2 * 4 + 3), 42.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), InvalidArgument);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from({2, 2}, {1, -2, 3, 4});
  EXPECT_FLOAT_EQ(t.sum(), 6.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.5f);
  EXPECT_FLOAT_EQ(t.min(), -2.0f);
  EXPECT_FLOAT_EQ(t.max(), 4.0f);
}

TEST(Tensor, AllClose) {
  const Tensor a = Tensor::from({2}, {1.0f, 2.0f});
  Tensor b = a;
  EXPECT_TRUE(a.allclose(b));
  b(0) += 1e-3f;
  EXPECT_FALSE(a.allclose(b, 1e-5f));
  EXPECT_TRUE(a.allclose(b, 1e-2f));
}

TEST(Tensor, AtChecksBounds) {
  const Tensor t({2, 2});
  EXPECT_THROW(t.at(2, 0), InvalidArgument);
}

class GemmVariants : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(GemmVariants, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  Rng rng(13);
  // Dimensions chosen so op(A) is [5x7] and op(B) is [7x4].
  const Tensor a = Tensor::randn(ta ? std::vector<std::size_t>{7, 5}
                                    : std::vector<std::size_t>{5, 7},
                                 rng);
  const Tensor b = Tensor::randn(tb ? std::vector<std::size_t>{4, 7}
                                    : std::vector<std::size_t>{7, 4},
                                 rng);
  const Tensor got = matmul(a, b, ta, tb);
  const Tensor want = naive_matmul(a, b, ta, tb);
  EXPECT_TRUE(got.allclose(want, 1e-4f)) << "ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmVariants,
                         ::testing::Values(std::pair{false, false},
                                           std::pair{false, true},
                                           std::pair{true, false},
                                           std::pair{true, true}));

TEST(Gemm, AccumulatesWithBeta) {
  Rng rng(14);
  const Tensor a = Tensor::randn({3, 3}, rng);
  const Tensor b = Tensor::randn({3, 3}, rng);
  Tensor c = Tensor::full({3, 3}, 2.0f);
  gemm(a, b, c, false, false, 1.0f, 1.0f);
  Tensor want = naive_matmul(a, b, false, false);
  for (float& v : want.values()) v += 2.0f;
  EXPECT_TRUE(c.allclose(want, 1e-4f));
}

TEST(Gemm, AlphaScales) {
  Rng rng(15);
  const Tensor a = Tensor::randn({2, 4}, rng);
  const Tensor b = Tensor::randn({4, 2}, rng);
  Tensor c({2, 2});
  gemm(a, b, c, false, false, 0.5f, 0.0f);
  Tensor want = naive_matmul(a, b, false, false);
  for (float& v : want.values()) v *= 0.5f;
  EXPECT_TRUE(c.allclose(want, 1e-4f));
}

TEST(Gemm, RejectsShapeMismatch) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  Tensor c({2, 2});
  EXPECT_THROW(gemm(a, b, c), InvalidArgument);
}

/// Xᵀ built element by element, independent of gemm's own transpose.
Tensor transpose_by_hand(const Tensor& x) {
  Tensor t({x.dim(1), x.dim(0)});
  for (std::size_t i = 0; i < x.dim(0); ++i)
    for (std::size_t j = 0; j < x.dim(1); ++j) t(j, i) = x(i, j);
  return t;
}

// gemm has one kernel: a transposed operand gives the plain product with
// that operand transposed first, bit for bit. k = 40 >= 32, where a
// vectorized dot product rounds differently from the kernel's row updates.
TEST(Gemm, TransposedOperandsRunTheOneKernelBitwise) {
  Rng rng(21);
  const Tensor a = Tensor::randn({9, 40}, rng);
  const Tensor b = Tensor::randn({24, 40}, rng);
  Tensor got({9, 24});
  Tensor want({9, 24});
  gemm(a, b, got, false, true);
  gemm(a, transpose_by_hand(b), want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)), 0);

  // Linear's weight-gradient accumulate, dW += xᵀ·g (trans_a, beta = 1).
  const Tensor x = Tensor::randn({40, 9}, rng);
  const Tensor g = Tensor::randn({40, 24}, rng);
  got = Tensor::randn({9, 24}, rng);
  want = got;
  gemm(x, g, got, true, false, 1.0f, 1.0f);
  gemm(transpose_by_hand(x), g, want, false, false, 1.0f, 1.0f);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)), 0);
}

TEST(Gemm, LargeSizeAgainstNaive) {
  Rng rng(16);
  const Tensor a = Tensor::randn({64, 48}, rng);
  const Tensor b = Tensor::randn({48, 32}, rng);
  EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b, false, false), 1e-3f));
}

TEST(Ops, RowBroadcastAndSumRowsAreAdjoint) {
  Rng rng(17);
  Tensor y = Tensor::randn({4, 3}, rng);
  const Tensor y0 = y;
  const Tensor bias = Tensor::from({3}, {1, 2, 3});
  add_row_broadcast(y, bias);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_FLOAT_EQ(y(i, j), y0(i, j) + bias(j));

  Tensor sums({3});
  sum_rows(y0, sums);
  for (std::size_t j = 0; j < 3; ++j) {
    float want = 0;
    for (std::size_t i = 0; i < 4; ++i) want += y0(i, j);
    EXPECT_NEAR(sums(j), want, 1e-5f);
  }
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(18);
  Tensor x = Tensor::randn({5, 9}, rng, 0.0f, 10.0f);
  softmax_rows(x);
  for (std::size_t i = 0; i < 5; ++i) {
    float total = 0;
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_GE(x(i, j), 0.0f);
      total += x(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::from({1, 3}, {1, 2, 3});
  Tensor b = Tensor::from({1, 3}, {1001, 1002, 1003});
  softmax_rows(a);
  softmax_rows(b);
  EXPECT_TRUE(a.allclose(b, 1e-5f));
}

TEST(Ops, SoftmaxRowNormalizesOnlyItsSpan) {
  std::vector<float> x = {1, 2, 7, 7};
  softmax_row(std::span<float>(x).first(2));
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6f);
  EXPECT_LT(x[0], x[1]);
  EXPECT_EQ(x[2], 7.0f);
  EXPECT_EQ(x[3], 7.0f);
  softmax_row(std::span<float>(x).first(0));  // empty: no-op
  EXPECT_EQ(x[2], 7.0f);
}

TEST(Ops, Argmax) {
  const std::vector<float> row = {0.1f, 0.9f, 0.3f};
  EXPECT_EQ(argmax(row), 1u);
}

TEST(Ops, AxpyAndScale) {
  Tensor y = Tensor::from({3}, {1, 2, 3});
  const Tensor x = Tensor::from({3}, {10, 10, 10});
  axpy(y, 0.5f, x);
  EXPECT_FLOAT_EQ(y(1), 7.0f);
  scale_inplace(y, 2.0f);
  EXPECT_FLOAT_EQ(y(2), 16.0f);
}

TEST(Ops, SquaredNorm) {
  const Tensor x = Tensor::from({2}, {3, 4});
  EXPECT_DOUBLE_EQ(squared_norm(x), 25.0);
}

TEST(TensorIo, RoundTripsAllRanks) {
  Rng rng(19);
  for (const auto& shape :
       {std::vector<std::size_t>{7}, {3, 4}, {2, 3, 4}}) {
    const Tensor t = Tensor::randn(shape, rng);
    std::stringstream buf;
    write_tensor(buf, t);
    const Tensor back = read_tensor(buf);
    EXPECT_TRUE(back.allclose(t, 0.0f));
  }
}

TEST(TensorIo, RejectsCorruptMagic) {
  std::stringstream buf;
  buf << "NOPE garbage";
  EXPECT_THROW(read_tensor(buf), ParseError);
}

TEST(TensorIo, RejectsTruncation) {
  Rng rng(20);
  const Tensor t = Tensor::randn({8, 8}, rng);
  std::stringstream buf;
  write_tensor(buf, t);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_THROW(read_tensor(half), IoError);
}

TEST(TensorIo, StringRoundTrip) {
  std::stringstream buf;
  write_string(buf, "encoder.block0.attn.q.weight");
  EXPECT_EQ(read_string(buf), "encoder.block0.attn.q.weight");
}

}  // namespace
}  // namespace clpp
