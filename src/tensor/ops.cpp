#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/trace.h"
#include "prof/flops.h"
#include "support/parallel.h"

namespace clpp {

namespace {

/// Shapes of op(A)[m,k], op(B)[k,n] for the requested transpose pattern.
struct GemmDims {
  std::size_t m, n, k;
};

GemmDims gemm_dims(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  CLPP_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                 "gemm requires rank-2 operands, got " << a.shape_str() << " and "
                                                       << b.shape_str());
  const std::size_t am = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t ak = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t bk = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t bn = trans_b ? b.dim(0) : b.dim(1);
  CLPP_CHECK_MSG(ak == bk, "gemm inner dimensions disagree: " << a.shape_str() << " x "
                                                              << b.shape_str());
  return GemmDims{am, bn, ak};
}

/// Row-major copy of rank-2 `x` transposed.
std::vector<float> transposed(const Tensor& x) {
  const std::size_t rows = x.dim(0);
  const std::size_t cols = x.dim(1);
  std::vector<float> t(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* xrow = x.row(i);
    for (std::size_t j = 0; j < cols; ++j) t[j * rows + i] = xrow[j];
  }
  return t;
}

// C[i,:] += alpha * sum_k A[i,k] B[k,:]  — inner loop streams B and C rows.
void gemm_nn(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
             std::size_t k, float alpha) {
  parallel_for(
      m,
      [&](std::size_t i) {
        float* crow = c + i * n;
        const float* arow = a + i * k;
        for (std::size_t p = 0; p < k; ++p) {
          const float av = alpha * arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      },
      8);
}

}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a, bool trans_b,
          float alpha, float beta) {
  CLPP_TRACE_SPAN("gemm");
  const GemmDims d = gemm_dims(a, b, trans_a, trans_b);
  // Roofline accounting: 2mnk FLOPs over compulsory traffic (read A and B
  // once, read-modify-write C; the copy of a transposed operand is left
  // out) — reports clpp.prof.gemm.{gflops,...}.
  CLPP_PROF_KERNEL("gemm", 2ull * d.m * d.n * d.k,
                   sizeof(float) * (d.m * d.k + d.k * d.n + 2 * d.m * d.n));
  CLPP_CHECK_MSG(c.rank() == 2 && c.dim(0) == d.m && c.dim(1) == d.n,
                 "gemm output shape " << c.shape_str() << " does not match ["
                                      << d.m << "x" << d.n << "]");
  if (beta == 0.0f) {
    c.zero();
  } else if (beta != 1.0f) {
    scale_inplace(c, beta);
  }
  std::vector<float> a_t;
  std::vector<float> b_t;
  if (trans_a) a_t = transposed(a);
  if (trans_b) b_t = transposed(b);
  gemm_nn(trans_a ? a_t.data() : a.data(), trans_b ? b_t.data() : b.data(), c.data(),
          d.m, d.n, d.k, alpha);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const GemmDims d = gemm_dims(a, b, trans_a, trans_b);
  Tensor c({d.m, d.n});
  gemm(a, b, c, trans_a, trans_b, 1.0f, 0.0f);
  return c;
}

void add_inplace(Tensor& y, const Tensor& x) { axpy(y, 1.0f, x); }

void axpy(Tensor& y, float alpha, const Tensor& x) {
  CLPP_CHECK_MSG(y.shape() == x.shape(),
                 "axpy shape mismatch: " << y.shape_str() << " vs " << x.shape_str());
  float* yd = y.data();
  const float* xd = x.data();
  const std::size_t n = y.numel();
  for (std::size_t i = 0; i < n; ++i) yd[i] += alpha * xd[i];
}

void scale_inplace(Tensor& y, float alpha) {
  for (float& v : y.values()) v *= alpha;
}

void add_row_broadcast(Tensor& y, const Tensor& bias) {
  CLPP_CHECK_MSG(y.rank() == 2 && bias.rank() == 1 && bias.dim(0) == y.cols(),
                 "broadcast shape mismatch: " << y.shape_str() << " += "
                                              << bias.shape_str());
  const float* b = bias.data();
  const std::size_t n = y.cols();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* row = y.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] += b[j];
  }
}

void sum_rows(const Tensor& x, Tensor& out) {
  CLPP_CHECK_MSG(x.rank() == 2 && out.rank() == 1 && out.dim(0) == x.cols(),
                 "sum_rows shape mismatch: " << x.shape_str() << " -> "
                                             << out.shape_str());
  out.zero();
  float* o = out.data();
  const std::size_t n = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const float* row = x.row(i);
    for (std::size_t j = 0; j < n; ++j) o[j] += row[j];
  }
}

void softmax_row(std::span<float> row) {
  if (row.empty()) return;
  float mx = row[0];
  for (std::size_t j = 1; j < row.size(); ++j) mx = std::max(mx, row[j]);
  float total = 0.0f;
  for (float& v : row) {
    v = std::exp(v - mx);
    total += v;
  }
  const float inv = 1.0f / total;
  for (float& v : row) v *= inv;
}

void softmax_rows(Tensor& x) {
  CLPP_CHECK_MSG(x.rank() == 2, "softmax_rows requires rank 2, got " << x.shape_str());
  for (std::size_t i = 0; i < x.rows(); ++i) softmax_row(x.row_span(i));
}

std::size_t argmax(std::span<const float> row) {
  CLPP_CHECK(!row.empty());
  return static_cast<std::size_t>(
      std::distance(row.begin(), std::max_element(row.begin(), row.end())));
}

double squared_norm(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.values()) acc += static_cast<double>(v) * v;
  return acc;
}

}  // namespace clpp
