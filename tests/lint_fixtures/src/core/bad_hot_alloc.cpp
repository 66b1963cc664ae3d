// Fixture: allocations inside the propagate call graph. The resize in
// warm() and the PackedDenseLayer local in propagate_f32 are reachable
// from the propagate_f32 root and must each fire hot-path-alloc once (two
// findings); cold_load() also grows a container but is unreachable from
// any root and must stay clean.
#include <cstddef>
#include <vector>

namespace fixture {

struct DenseLayer {};
struct PackedDenseLayer {
  std::vector<float> weight;
};
PackedDenseLayer pack_dense_layer(const DenseLayer& layer);

std::vector<float>& ad_hoc_scratch();
std::vector<float>& load_cache();

void warm(std::size_t n) { ad_hoc_scratch().resize(n); }

void cold_load(std::size_t n) { load_cache().resize(n); }

struct InferenceSession {
  void propagate_f32(const DenseLayer& layer, std::size_t n);
};

void InferenceSession::propagate_f32(const DenseLayer& layer, std::size_t n) {
  warm(n);
  PackedDenseLayer p = pack_dense_layer(layer);
  (void)p;
}

}  // namespace fixture
