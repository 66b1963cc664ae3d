#include "core/moment_fused.h"

#include <algorithm>

#include "core/arena.h"
#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "obs/trace.h"
#include "platform/thread_pool.h"
#include "tensor/ops.h"

namespace apds {

namespace {

constexpr std::size_t kElementwiseGrain = 1 << 15;
constexpr std::size_t kMinFlopsPerChunk = 1 << 16;
constexpr std::size_t kTile = kKernelMomentTile;
constexpr std::size_t kRows = kKernelMomentRows;

/// Build scaled_mean / var_in from the input moments (dispatched kernel,
/// elementwise, partition-invariant).
void prep_inputs(const float* mu, const float* var, std::size_t count,
                 double keep_prob, float* sm, float* vi,
                 const KernelOps& ops) {
  const float p = static_cast<float>(keep_prob);
  const float p2 = p * p;
  parallel_for(0, count, kElementwiseGrain,
               [&](std::size_t lo, std::size_t hi) {
                 ops.moment_prep_f32(mu + lo, var + lo, sm + lo, vi + lo,
                                     hi - lo, p, p2);
               });
}

/// The fused tile loop over `n` output columns of panel-packed W / W∘W
/// (see kernel_panel_floats): the panels start at wp / wsqp, the bias at
/// `bias`. moment_tile_f32 fills one row-block x column-tile block's
/// pre-activation moments (stack buffers), then the activation tile runs
/// in place row by row and the post-activation moments spill to the
/// output. Work units are (row-block, column-tile) pairs with fixed block
/// boundaries, so the per-element arithmetic — and therefore the result —
/// is independent of the thread count. The row blocking exists for weight
/// reuse: the moment kernel streams each W/Wsq slice once per block
/// instead of once per batch row. The caller supplies the packed PWL view
/// so a session can hoist pack_pwl to load time.
void fused_panels(const float* sm, const float* vi, const float* wp,
                  const float* wsqp, const float* bias, std::size_t batch,
                  std::size_t kdim, std::size_t n, const PiecewiseLinear& f,
                  const PwlView& view, const KernelOps& ops, float* out_mean,
                  float* out_var) {
  const std::size_t tiles_per_row = (n + kTile - 1) / kTile;
  const std::size_t row_blocks = (batch + kRows - 1) / kRows;
  const std::size_t block_flops = 4 * kdim * kTile * kRows;
  const std::size_t grain =
      std::max<std::size_t>(1, kMinFlopsPerChunk / (block_flops + 1));
  parallel_for(
      0, row_blocks * tiles_per_row, grain,
      [&](std::size_t lo, std::size_t hi) {
        float tmean[kRows * kTile], tvar[kRows * kTile];
        unsigned char det[kTile];
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t r0 = (t / tiles_per_row) * kRows;
          const std::size_t r1 = std::min(batch, r0 + kRows);
          const std::size_t j0 = (t % tiles_per_row) * kTile;
          const std::size_t j1 = std::min(n, j0 + kTile);
          const std::size_t width = j1 - j0;
          ops.moment_tile_f32(sm, vi, wp, wsqp, bias, kdim, r0, r1, j0, j1,
                              tmean, tvar);
          for (std::size_t r = r0; r < r1; ++r) {
            float* rm = tmean + (r - r0) * width;
            float* rv = tvar + (r - r0) * width;
            if (ops.act_tile_f32(view, rm, rv, width, kDeterministicVarF,
                                 det)) {
              // Near-deterministic lanes still hold pre-activation
              // moments; finish them through the f64 scalar path.
              for (std::size_t l = 0; l < width; ++l) {
                if (!det[l]) continue;
                const ScalarMoments m = activation_moments(
                    f, static_cast<double>(rm[l]),
                    static_cast<double>(rv[l]));
                rm[l] = static_cast<float>(m.mean);
                rv[l] = static_cast<float>(m.var);
              }
            }
            std::copy(rm, rm + width, out_mean + r * n + j0);
            std::copy(rv, rv + width, out_var + r * n + j0);
          }
        }
      });
}

}  // namespace

PackedDenseLayer pack_dense_layer(const DenseLayer& layer) {
  const std::size_t kdim = layer.in_dim();
  PackedDenseLayer p;
  p.out_dim = layer.out_dim();
  const std::size_t rows =
      kernel_panel_floats(kdim, p.out_dim) / kKernelPanelCols;
  p.weight.resize(rows);
  p.weight_sq.resize(rows);
  // W∘W is squared in f64, then narrowed, then packed: one rounding. The
  // row-major f32 copies live only until their panels are written.
  const KernelOps& ops = kernel_ops();
  ops.pack_panels_f32(to_f32(layer.weight).data(), p.out_dim, kdim,
                      p.out_dim, p.weight.data()->lane);
  ops.pack_panels_f32(to_f32(square(layer.weight)).data(), p.out_dim, kdim,
                      p.out_dim, p.weight_sq.data()->lane);
  p.bias = to_f32(layer.bias);
  return p;
}

void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const PackedDenseLayer& layer, double keep_prob,
                            const PiecewiseLinear& f, const PwlView& view,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var) {
  APDS_TRACE_SCOPE("core.moment_linear_act");
  const KernelOps& ops = kernel_ops();
  prep_inputs(in_mean, in_var, batch * kdim, keep_prob, scratch.sm,
              scratch.vi, ops);
  const std::size_t n = layer.out_dim;
  fused_panels(scratch.sm, scratch.vi, layer.weight_panels(),
               layer.weight_sq_panels(), layer.bias.data(), batch, kdim, n, f,
               view, ops, out_mean, out_var);
  APDS_MOMENT_CONTRACT_BUF(out_mean, out_var, batch * n, n,
                           "core.moment_linear_act output");
}

void moment_linear_act_into(const float* in_mean, const float* in_var,
                            std::size_t batch, std::size_t kdim,
                            const float* weight, const float* weight_sq,
                            const float* bias, std::size_t n,
                            double keep_prob, const PiecewiseLinear& f,
                            const PwlView& view,
                            const FusedScratchView& scratch, float* out_mean,
                            float* out_var) {
  APDS_TRACE_SCOPE("core.moment_linear_act");
  const KernelOps& ops = kernel_ops();
  prep_inputs(in_mean, in_var, batch * kdim, keep_prob, scratch.sm,
              scratch.vi, ops);
  // One column tile at a time: pack its W / W∘W panels, run the tile grid
  // on them, copy the spill into place. The tile's panels and spill stay
  // L2-resident while every row block reuses them, so the per-call packing
  // costs little more than one pass over the row-major weights.
  const std::size_t panel = kernel_panel_floats(kdim, kTile);
  float* wp = reinterpret_cast<float*>(thread_scratch().require(
      (2 * panel + 2 * batch * kTile) * sizeof(float)));
  float* wsqp = wp + panel;
  float* tmean = wsqp + panel;
  float* tvar = tmean + batch * kTile;
  for (std::size_t c0 = 0; c0 < n; c0 += kTile) {
    const std::size_t width = std::min(kTile, n - c0);
    ops.pack_panels_f32(weight + c0, n, kdim, width, wp);
    ops.pack_panels_f32(weight_sq + c0, n, kdim, width, wsqp);
    fused_panels(scratch.sm, scratch.vi, wp, wsqp, bias + c0, batch, kdim,
                 width, f, view, ops, tmean, tvar);
    for (std::size_t r = 0; r < batch; ++r) {
      std::copy(tmean + r * width, tmean + (r + 1) * width,
                out_mean + r * n + c0);
      std::copy(tvar + r * width, tvar + (r + 1) * width,
                out_var + r * n + c0);
    }
  }
  APDS_MOMENT_CONTRACT_BUF(out_mean, out_var, batch * n, n,
                           "core.moment_linear_act output");
}

}  // namespace apds
