// Single-precision fast path of the batched activation-moment kernel —
// now a thin driver over the runtime-dispatched tile kernels.
//
// The actual tile math (piece-major boundary sharing, f32 scratch,
// fast_math transcendentals) lives in tensor/kernels/kernel_body.inl and
// is compiled once per ISA tier (scalar/AVX2/AVX-512) with that tier's -m
// flags; kernel_ops() binds the widest tier the CPU executes. This driver
// keeps what the kernel layer must not know about: the thread-pool
// partitioning, the PiecewiseLinear type, and the f64 scalar fixup of
// near-deterministic lanes (the kernel leaves those lanes untouched and
// flags them — the closed form loses to linearization at f32 epsilon, see
// kDeterministicVarF in moment_activation.h).
#include <algorithm>

#include "core/moment_activation.h"
#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

namespace {

// Mirrors of the f64 kernel's tiling constants (moment_activation.cpp);
// the tile width is pinned by the kernel layer's stack buffers.
constexpr std::size_t kTile = kKernelMomentTile;
constexpr std::size_t kActivationGrain = 256;

}  // namespace

void moment_activation_batch(const PiecewiseLinear& f, float* mean,
                             float* var, std::size_t n) {
  // By-value convenience: pays the pack per call by design; sessions hoist
  // pack_pwl to load time. apds-lint: allow(hot-path-alloc)
  const PwlPack pack = pack_pwl(f);
  moment_activation_batch(f, pack.view(), mean, var, n);
}

void moment_activation_batch(const PiecewiseLinear& f, const PwlView& view,
                             float* mean, float* var, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    APDS_CHECK_MSG(var[i] >= 0.0f, "moment_activation: negative variance");
  const KernelOps& ops = kernel_ops();
  parallel_for(0, n, kActivationGrain, [&](std::size_t lo, std::size_t hi) {
    unsigned char det[kTile];
    for (std::size_t t = lo; t < hi; t += kTile) {
      const std::size_t len = std::min(kTile, hi - t);
      if (!ops.act_tile_f32(view, mean + t, var + t, len, kDeterministicVarF,
                            det))
        continue;
      // Near-deterministic lanes still hold their input moments; finish
      // them through the f64 scalar path (linearization short-circuit).
      for (std::size_t i = 0; i < len; ++i) {
        if (!det[i]) continue;
        const ScalarMoments sm =
            activation_moments(f, static_cast<double>(mean[t + i]),
                               static_cast<double>(var[t + i]));
        mean[t + i] = static_cast<float>(sm.mean);
        var[t + i] = static_cast<float>(sm.var);
      }
    }
  });
}

}  // namespace apds
