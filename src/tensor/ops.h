// Compute kernels over Tensor: GEMM, broadcasts, softmax, reductions.
//
// These are the hot paths of PragFormer training. GEMM dispatches on the
// transpose pattern to loop orders that stream contiguously in the inner
// loop (auto-vectorizable), and parallelizes the outer loop with OpenMP.
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace clpp {

/// C = alpha * op(A) * op(B) + beta * C, rank-2 operands.
/// op(X) = X or Xᵀ according to trans_a / trans_b. Shapes are validated.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false,
          bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

/// Returns op(A) * op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x);

/// y += alpha * x (same shape).
void axpy(Tensor& y, float alpha, const Tensor& x);

/// y *= alpha.
void scale_inplace(Tensor& y, float alpha);

/// Adds `bias` (rank-1, length == y.cols()) to every row of rank-2 `y`.
void add_row_broadcast(Tensor& y, const Tensor& bias);

/// Sums rows of rank-2 `x` into rank-1 `out` (length x.cols()); out is
/// overwritten. This is the backward of add_row_broadcast.
void sum_rows(const Tensor& x, Tensor& out);

/// In-place numerically-stable softmax over the last dimension of a rank-2
/// tensor (each row independently).
void softmax_rows(Tensor& x);

/// Like softmax_rows, but positions j >= valid[i] of row i receive
/// probability 0 (used for padded attention). valid[i] must be >= 1.
void softmax_rows_masked(Tensor& x, std::span<const int> valid);

/// Returns the index of the maximum element of a rank-1 tensor / row span.
std::size_t argmax(std::span<const float> row);

/// Squared L2 norm of all elements.
double squared_norm(const Tensor& x);

}  // namespace clpp
