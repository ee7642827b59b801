// Compute kernels over Tensor: GEMM, broadcasts, softmax, reductions.
//
// These are the hot paths of PragFormer training and inference. GEMM has
// one kernel, row-major A·B, whose inner loop streams rows of B and C
// (auto-vectorizable) and whose rows of C run on an OpenMP team; a
// transposed operand is copied once into row-major scratch first. Every row
// softmax (the loss, the attention core) is `softmax_row`.
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

/// In-place numerically-stable softmax of one row (no-op when empty).
void softmax_row(std::span<float> row);

/// softmax_row over each row of a rank-2 tensor.
void softmax_rows(Tensor& x);

/// Returns the index of the maximum element of a rank-1 tensor / row span.
std::size_t argmax(std::span<const float> row);

/// Squared L2 norm of all elements.
double squared_norm(const Tensor& x);

}  // namespace clpp
