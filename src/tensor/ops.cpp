#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

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

// C[i,:] = alpha * sum_k A[i,k] B[k,:]  — inner loop streams B and C rows.
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

// C[i,j] = alpha * dot(A[i,:], B[j,:]) — both operands stream contiguously.
void gemm_nt(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
             std::size_t k, float alpha) {
  parallel_for(
      m,
      [&](std::size_t i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
          crow[j] += alpha * acc;
        }
      },
      8);
}

// C[:, :] += alpha * A[p,:]ᵀ B[p,:] accumulated over p — rank-1 updates.
// Serial over p (each update touches all of C), vectorized over j.
void gemm_tn(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
             std::size_t k, float alpha) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[i,j] = alpha * sum_p A[p,i] * B[j,p] — rare; fall back to index math.
void gemm_tt(const float* a, const float* b, float* c, std::size_t m, std::size_t n,
             std::size_t k, float alpha) {
  parallel_for(
      m,
      [&](std::size_t i) {
        float* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (std::size_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
          crow[j] += alpha * acc;
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
  // once, read-modify-write C) — reports clpp.prof.gemm.{gflops,...}.
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
  if (!trans_a && !trans_b) gemm_nn(a.data(), b.data(), c.data(), d.m, d.n, d.k, alpha);
  else if (!trans_a && trans_b) gemm_nt(a.data(), b.data(), c.data(), d.m, d.n, d.k, alpha);
  else if (trans_a && !trans_b) gemm_tn(a.data(), b.data(), c.data(), d.m, d.n, d.k, alpha);
  else gemm_tt(a.data(), b.data(), c.data(), d.m, d.n, d.k, alpha);
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

void softmax_rows(Tensor& x) {
  CLPP_CHECK_MSG(x.rank() == 2, "softmax_rows requires rank 2, got " << x.shape_str());
  const std::size_t n = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    float* row = x.row(i);
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      total += row[j];
    }
    const float inv = 1.0f / total;
    for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
  }
}

void softmax_rows_masked(Tensor& x, std::span<const int> valid) {
  CLPP_CHECK_MSG(x.rank() == 2, "softmax_rows_masked requires rank 2");
  CLPP_CHECK_MSG(valid.size() == x.rows(), "one valid length per row required");
  const std::size_t n = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::size_t len = static_cast<std::size_t>(valid[i]);
    CLPP_CHECK_MSG(len >= 1 && len <= n, "valid length out of range: " << valid[i]);
    float* row = x.row(i);
    float mx = row[0];
    for (std::size_t j = 1; j < len; ++j) mx = std::max(mx, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < len; ++j) {
      row[j] = std::exp(row[j] - mx);
      total += row[j];
    }
    const float inv = 1.0f / total;
    for (std::size_t j = 0; j < len; ++j) row[j] *= inv;
    for (std::size_t j = len; j < n; ++j) row[j] = 0.0f;
  }
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
