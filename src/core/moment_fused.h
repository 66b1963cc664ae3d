// Fused dropout-linear -> PWL-activation moment propagation.
//
// The unfused path (moment_linear + moment_activation_inplace) writes the
// pre-activation mean/variance matrices to memory and immediately reads
// them back for the activation pass — at IoT layer sizes the intermediate
// round-trip costs as much bandwidth as the GEMMs themselves. The fused
// path computes each output tile's pre-activation moments into stack
// buffers, applies the piece-major activation-moment tile while the values
// are still in L1, and only then spills the POST-activation moments to the
// output matrix. The intermediate matrices never exist.
//
// The f32 tile is a register-blocked micro-kernel over W and W∘W packed
// into column panels (PackedDenseLayer, built once at session load): the
// packing, not the blocking, is what pays — row-major W puts consecutive k
// rows 2 KB apart on the same few L1 sets, so a blocked kernel reading it
// misses on every reuse (docs/PERFORMANCE.md has the numbers).
//
// Both entry points route through the runtime kernel dispatcher
// (tensor/kernels/), so the tile kernels run at the widest ISA tier the
// CPU supports.
#pragma once

#include <vector>

#include "core/gaussian_vec.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"
#include "tensor/kernels/kernel_dispatch.h"

namespace apds {

/// One 64-byte-aligned row of a packed weight panel. std::vector honours
/// the over-alignment, so panel loads never split a cache line.
struct alignas(64) PanelRow {
  float lane[kKernelPanelCols];
};

/// One dense layer packed for the f32 fused path: W and W∘W (squared in
/// f64, then narrowed — one rounding, not two) in the column-panel layout
/// of kernel_panel_floats, plus f32 bias. This is the only copy of the
/// weights an f32 session keeps.
struct PackedDenseLayer {
  std::size_t out_dim = 0;
  std::vector<PanelRow> weight;
  std::vector<PanelRow> weight_sq;
  MatrixF bias;

  const float* weight_panels() const {
    return reinterpret_cast<const float*>(weight.data());
  }
  const float* weight_sq_panels() const {
    return reinterpret_cast<const float*>(weight_sq.data());
  }
  /// Bytes held: both padded panel packs plus the bias.
  std::size_t bytes() const {
    return (weight.size() + weight_sq.size()) * sizeof(PanelRow) +
           bias.size() * sizeof(float);
  }
};

/// Pack one trained layer's weights for the f32 fused path.
PackedDenseLayer pack_dense_layer(const DenseLayer& layer);

/// Caller-provided scratch for the raw fused entry points: sm/vi are
/// batch x kdim f32 blocks (prepped GEMM inputs). Sessions pass
/// arena-planned slices.
struct FusedScratchView {
  float* sm = nullptr;
  float* vi = nullptr;
};

/// Fused f32 moment_linear -> activation against a layer packed at load:
/// semantically identical to moment_linear_into followed by
/// moment_activation_batch, minus the intermediate pre-activation matrices
/// (rounding differs within f32 tolerance). `view` is the packed form of
/// `f` (pack_pwl) so repeated callers hoist the packing; `f` itself is
/// still consulted for the f64 scalar fixup of near-deterministic lanes.
/// No allocation, no shape checks. This is the overload sessions run.
void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const PackedDenseLayer& layer, double keep_prob,
                            const PiecewiseLinear& f, const PwlView& view,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var);

/// The same fused layer over row-major kdim x n `weight` / `weight_sq`:
/// packs them, one column tile at a time, into this thread's scratch arena
/// (thread_scratch(); it allocates only when growing) and runs the same
/// tile kernel, so the result is bit-identical to the packed overload on
/// the same weights. Packing costs a pass over the weights per call, so
/// serving callers pack once (pack_dense_layer) and use the overload above.
void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const float* weight, const float* weight_sq,
                            const float* bias, std::size_t n,
                            double keep_prob, const PiecewiseLinear& f,
                            const PwlView& view,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var);

}  // namespace apds
