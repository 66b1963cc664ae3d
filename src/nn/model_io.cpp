#include "nn/model_io.h"

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_io.h"

namespace apds {

namespace {
constexpr char kMagic[8] = {'A', 'P', 'D', 'S', '0', '0', '0', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw IoError("model file: truncated");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > 4096) throw IoError("model file: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw IoError("model file: truncated string");
  return s;
}
}  // namespace

// A value is non-finite iff its exponent bits are all ones, and then adding
// one to the masked exponent carries into the sign bit. This branch-free
// OR-reduction vectorises at the baseline ISA; a per-element std::isfinite
// branch ran about 2.5x slower and nearly doubled the time of a warm
// load_model.
void check_finite(const Matrix& m, const char* layer_kind, std::uint64_t l,
                  const char* what) {
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ULL;
  constexpr std::uint64_t kExponentOne = 0x0010000000000000ULL;
  std::uint64_t carry = 0;
  for (const double v : m.flat())
    carry |= (std::bit_cast<std::uint64_t>(v) & kExponent) + kExponentOne;
  if (carry >> 63)
    throw IoError(std::string(layer_kind) + " " + std::to_string(l) +
                  " has a non-finite " + what);
}

void save_model(const Mlp& mlp, const std::string& path) {
  TraceSpan span("io.save_model", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw IoError("cannot open for writing: " + path);
  os.write(kMagic, sizeof(kMagic));
  write_u64(os, mlp.num_layers());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const DenseLayer& layer = mlp.layer(l);
    write_string(os, activation_name(layer.act));
    const double kp = layer.keep_prob;
    os.write(reinterpret_cast<const char*>(&kp), sizeof(kp));
    write_matrix(os, layer.weight);
    write_matrix(os, layer.bias);
  }
  if (!os) throw IoError("write failure: " + path);
  MetricsRegistry::instance().counter("io.model_bytes_written").add(
      static_cast<std::int64_t>(os.tellp()));
}

Mlp load_model(const std::string& path) {
  TraceSpan span("io.load_model", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || !std::equal(magic, magic + 8, kMagic))
    throw IoError("not an apds model file: " + path);
  const std::uint64_t num_layers = read_u64(is);
  if (num_layers == 0 || num_layers > 1024)
    throw IoError("model file: implausible layer count");
  std::vector<DenseLayer> layers;
  layers.reserve(num_layers);
  for (std::uint64_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    layer.act = parse_activation(read_string(is));
    is.read(reinterpret_cast<char*>(&layer.keep_prob),
            sizeof(layer.keep_prob));
    if (!is) throw IoError("model file: truncated keep_prob");
    // (0, 1]: a keep_prob above 1 makes the dropout variance
    // (mu^2 + sigma^2) p - mu^2 p^2 negative; NaN fails both comparisons.
    if (!(layer.keep_prob > 0.0 && layer.keep_prob <= 1.0))
      throw IoError("model file: layer " + std::to_string(l) +
                    " keep_prob " + std::to_string(layer.keep_prob) +
                    " outside (0, 1]");
    layer.weight = read_matrix(is);
    check_finite(layer.weight, "model file: layer", l, "weight");
    layer.bias = read_matrix(is);
    check_finite(layer.bias, "model file: layer", l, "bias");
    if (layer.bias.rows() != 1 || layer.bias.cols() != layer.weight.cols())
      throw IoError("model file: inconsistent layer shapes");
    layers.push_back(std::move(layer));
  }
  MetricsRegistry::instance().counter("io.model_bytes_read").add(
      static_cast<std::int64_t>(is.tellg()));
  return Mlp::from_layers(std::move(layers));
}

bool is_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[8];
  is.read(magic, sizeof(magic));
  return is && std::equal(magic, magic + 8, kMagic);
}

}  // namespace apds
