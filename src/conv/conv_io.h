// ConvNet serialization, mirroring nn/model_io.h.
//
// Format: magic "APDSCNV1", u64 input_len, u64 input_channels,
// u64 conv layer count, then per conv layer: kernel/in/out/stride (u64
// each), activation name, f64 channel_keep_prob, weight, bias; finally the
// dense head in the nn/model_io layer format (count + layers).
#pragma once

#include <string>

#include "conv/conv_net.h"

namespace apds {

/// Write the network to `path`. Throws IoError on failure.
void save_conv_net(const ConvNet& net, const std::string& path);

/// Load a network written by save_conv_net. Throws IoError on failure, and
/// on a file whose values no network can hold: a head keep_prob outside
/// (0, 1] or a non-finite conv or head weight or bias (the message names
/// the layer).
ConvNet load_conv_net(const std::string& path);

/// True if `path` exists and starts with the ConvNet magic.
bool is_conv_net_file(const std::string& path);

}  // namespace apds
