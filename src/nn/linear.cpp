#include "nn/linear.h"

#include <cmath>

#include "tensor/ops.h"

namespace clpp::nn {

namespace {
Tensor xavier_uniform(std::size_t in, std::size_t out, Rng& rng) {
  Tensor w({in, out});
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  for (float& v : w.values()) v = rng.uniform(-bound, bound);
  return w;
}
}  // namespace

Linear::Linear(std::string name, std::size_t in_features, std::size_t out_features,
               Rng& rng)
    : weight(name + ".weight", xavier_uniform(in_features, out_features, rng)),
      bias(name + ".bias", Tensor({out_features})) {}

Tensor Linear::forward(const Tensor& x, bool train) const {
  CLPP_CHECK_MSG(x.rank() == 2 && x.cols() == in_features(),
                 "Linear input " << x.shape_str() << " incompatible with in="
                                 << in_features());
  if (train) input_ = x;
  Tensor y = matmul(x, weight.value);
  add_row_broadcast(y, bias.value);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  CLPP_CHECK_MSG(!input_.empty(), "Linear::backward without forward");
  // dW += xᵀ g ; db += Σ_rows g ; dx = g Wᵀ.
  gemm(input_, grad_out, weight.grad, /*trans_a=*/true, /*trans_b=*/false, 1.0f, 1.0f);
  Tensor db({bias.value.dim(0)});
  sum_rows(grad_out, db);
  add_inplace(bias.grad, db);
  return matmul(grad_out, weight.value, /*trans_a=*/false, /*trans_b=*/true);
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

}  // namespace clpp::nn
