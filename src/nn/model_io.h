// Model serialization: save/load a trained Mlp to a binary file.
//
// Format: magic "APDS0001", u64 layer count, then per layer: activation
// name (u64 length + bytes), f64 keep_prob, weight matrix, bias matrix.
#pragma once

#include <cstdint>
#include <string>

#include "nn/mlp.h"

namespace apds {

/// Write the model to `path`. Throws IoError on failure.
void save_model(const Mlp& mlp, const std::string& path);

/// Load a model written by save_model. Throws IoError on failure, and on a
/// file whose values no network can hold: a keep_prob outside (0, 1] or a
/// non-finite weight or bias (the message names the layer).
Mlp load_model(const std::string& path);

/// Throws IoError("<layer_kind> <l> has a non-finite <what>") if `m` holds
/// a NaN or infinity. Shared by the model loaders, which call it right
/// after each parameter matrix is read, while it is still in cache.
void check_finite(const Matrix& m, const char* layer_kind, std::uint64_t l,
                  const char* what);

/// True if `path` exists and starts with the model magic.
bool is_model_file(const std::string& path);

}  // namespace apds
