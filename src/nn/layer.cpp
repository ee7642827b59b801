#include "nn/layer.h"

namespace clpp::nn {

void Layer::collect_parameters(std::vector<Parameter*>&) {}

std::size_t parameter_count(const std::vector<Parameter*>& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) n += p->numel();
  return n;
}

void zero_gradients(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->grad.zero();
}

}  // namespace clpp::nn
