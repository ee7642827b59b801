// Named-parameter checkpoints (save / load / transfer).
//
// Transfer is the mechanism behind the paper's DeepSCC -> PragFormer
// initialization: an MLM-pretrained encoder's parameters are loaded by name
// into a fresh classification model whose encoder shares the architecture.
//
// Durability: saves go through the clpp::resil checkpoint container
// (write-to-temp + fsync + rename, CRC32-checksummed payload), so a crash
// mid-save leaves the previous checkpoint intact and corruption is detected
// deterministically at load. Loads accept only the container.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace clpp::nn {

/// Writes all parameters (name -> tensor) to `path`.
void save_checkpoint(const std::string& path, const std::vector<Parameter*>& params);

/// Reads a checkpoint into a name -> tensor map.
std::map<std::string, Tensor> load_checkpoint(const std::string& path);

/// Assigns checkpoint tensors into matching parameters by name.
///
/// Returns the number of parameters restored. When `strict`, every
/// parameter must be present in the checkpoint with a matching shape;
/// otherwise unmatched parameters keep their initialization (partial
/// transfer, e.g. loading an MLM encoder into a classifier that adds a
/// fresh FC head).
std::size_t restore_parameters(const std::map<std::string, Tensor>& checkpoint,
                               const std::vector<Parameter*>& params, bool strict);

}  // namespace clpp::nn
