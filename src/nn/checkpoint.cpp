#include "nn/checkpoint.h"

#include <sstream>

#include "resil/container.h"
#include "resil/fault.h"
#include "tensor/io.h"

namespace clpp::nn {

namespace {

std::map<std::string, Tensor> read_entries(std::istream& in, const std::string& path) {
  const std::uint64_t count = read_u64(in);
  if (count > 1'000'000) throw ParseError("implausible checkpoint entry count");
  std::map<std::string, Tensor> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(in);
    Tensor value = read_tensor(in);
    if (!out.emplace(std::move(name), std::move(value)).second)
      throw ParseError("duplicate parameter name in checkpoint: " + path);
  }
  return out;
}

}  // namespace

void save_checkpoint(const std::string& path, const std::vector<Parameter*>& params) {
  std::ostringstream payload;
  write_u64(payload, params.size());
  for (const Parameter* p : params) {
    write_string(payload, p->name);
    write_tensor(payload, p->value);
  }
  resil::write_container(path, payload.view());
}

std::map<std::string, Tensor> load_checkpoint(const std::string& path) {
  resil::fault_point("ckpt.open");
  std::istringstream in(resil::read_container(path));
  return read_entries(in, path);
}

std::size_t restore_parameters(const std::map<std::string, Tensor>& checkpoint,
                               const std::vector<Parameter*>& params, bool strict) {
  std::size_t restored = 0;
  for (Parameter* p : params) {
    auto it = checkpoint.find(p->name);
    if (it == checkpoint.end()) {
      if (strict) throw ParseError("checkpoint missing parameter: " + p->name);
      continue;
    }
    if (it->second.shape() != p->value.shape()) {
      if (strict)
        throw ParseError("checkpoint shape mismatch for " + p->name + ": expected " +
                         p->value.shape_str() + ", found " + it->second.shape_str());
      continue;
    }
    p->value = it->second;
    ++restored;
  }
  return restored;
}

}  // namespace clpp::nn
