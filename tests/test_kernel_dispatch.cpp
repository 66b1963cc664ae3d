// Runtime kernel dispatch: parsing, CPUID probe ordering, the
// setter > APDS_KERNEL > probe precedence, and — the part that actually
// guards correctness — per-backend agreement of every dispatched kernel
// against the scalar reference table on identical inputs. The scalar TU is
// compiled with project-default flags, so it is the portable baseline the
// wider tiers must reproduce within documented tolerances (FMA contraction
// and shuffle order change rounding, not math).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/apdeepsense.h"
#include "core/moment_activation.h"
#include "core/moment_fused.h"
#include "nn/mlp.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "tensor/ops.h"

namespace apds {
namespace {

std::vector<KernelBackend> supported_backends() {
  std::vector<KernelBackend> out;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    if (kernel_backend_supported(b)) out.push_back(b);
  return out;
}

MatrixF random_matrix_f32(std::size_t r, std::size_t c, Rng& rng) {
  MatrixF m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

/// Same scaled metric as test_precision: absolute near zero, relative for
/// large magnitudes.
float max_scaled_diff(const MatrixF& a, const MatrixF& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float ref = a.flat()[i];
    const float d = std::fabs(ref - b.flat()[i]) / (std::fabs(ref) + 1.0f);
    worst = std::max(worst, d);
  }
  return worst;
}

TEST(KernelParsing, NamesRoundTripAndBadValuesThrow) {
  EXPECT_EQ(parse_kernel_backend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(parse_kernel_backend("AVX2"), KernelBackend::kAvx2);
  EXPECT_EQ(parse_kernel_backend("Avx512"), KernelBackend::kAvx512);
  // sse2 is the honest spelling of the x86-64 baseline tier.
  EXPECT_EQ(parse_kernel_backend("sse2"), KernelBackend::kScalar);
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx512), "avx512");
  EXPECT_THROW(parse_kernel_backend("avx"), InvalidArgument);
  EXPECT_THROW(parse_kernel_backend("neon"), InvalidArgument);
  EXPECT_THROW(parse_kernel_backend(""), InvalidArgument);
}

TEST(KernelProbe, TiersAreOrderedAndScalarAlwaysRuns) {
  // Scalar is compiled with project-default flags: every CPU executes it.
  EXPECT_TRUE(kernel_backend_supported(KernelBackend::kScalar));
  // Support is downward closed: a CPU at level L executes all levels <= L.
  const KernelBackend best = best_supported_backend();
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512})
    EXPECT_EQ(kernel_backend_supported(b),
              static_cast<int>(b) <= static_cast<int>(best));
  // The probe is cached — repeated calls agree.
  EXPECT_EQ(best_supported_backend(), best);
}

TEST(KernelDispatch, SetterOverridesEnvOverridesProbe) {
  struct Cleanup {
    ~Cleanup() {
      ::unsetenv("APDS_KERNEL");
      clear_global_kernel_backend();
    }
  } cleanup;

  ::unsetenv("APDS_KERNEL");
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // probe

  ::setenv("APDS_KERNEL", "scalar", 1);
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), KernelBackend::kScalar);  // env

  set_global_kernel_backend(best_supported_backend());
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // setter

  ::setenv("APDS_KERNEL", "bogus", 1);
  clear_global_kernel_backend();
  EXPECT_EQ(global_kernel_backend(), best_supported_backend());  // warn+probe
}

TEST(KernelDispatch, ForcingUnsupportedBackendClampsInsteadOfFaulting) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  // On a machine with the full AVX-512 set this setter is a plain set; on
  // anything weaker it must clamp to the best supported tier — an override
  // must never SIGILL a device.
  set_global_kernel_backend(KernelBackend::kAvx512);
  EXPECT_TRUE(kernel_backend_supported(global_kernel_backend()));
  // Requesting an unsupported table directly returns the scalar table.
  if (!kernel_backend_supported(KernelBackend::kAvx512)) {
    EXPECT_STREQ(kernel_ops(KernelBackend::kAvx512).name, "scalar");
  }
}

TEST(KernelDispatch, TablesAreFullyPopulated) {
  for (const KernelBackend b : supported_backends()) {
    const KernelOps& ops = kernel_ops(b);
    EXPECT_STREQ(ops.name, kernel_backend_name(b));
    EXPECT_NE(ops.gemm_tile_f32, nullptr);
    EXPECT_NE(ops.moment_prep_f32, nullptr);
    EXPECT_NE(ops.act_tile_f32, nullptr);
    EXPECT_NE(ops.pack_panels_f32, nullptr);
    EXPECT_NE(ops.moment_tile_f32, nullptr);
  }
}

// ---- raw per-kernel agreement against the scalar table ---------------------

TEST(KernelAgreement, GemmTileMatchesScalar) {
  Rng rng(41);
  const std::size_t m = 37, k = 53, n = 29;
  const MatrixF a = random_matrix_f32(m, k, rng);
  const MatrixF b = random_matrix_f32(k, n, rng);
  MatrixF ref(m, n);
  kernel_ops(KernelBackend::kScalar)
      .gemm_tile_f32(a.data(), b.data(), ref.data(), k, n, false, 0, m, 0, n);
  for (const KernelBackend back : supported_backends()) {
    MatrixF c(m, n);
    kernel_ops(back).gemm_tile_f32(a.data(), b.data(), c.data(), k, n, false,
                                   0, m, 0, n);
    EXPECT_LE(max_scaled_diff(ref, c), 1e-4f) << kernel_backend_name(back);
  }
}

TEST(KernelAgreement, ElementwiseKernelsMatchScalar) {
  // The moment prep is elementwise — no accumulation-order freedom. sm is
  // a single multiply, so every tier agrees bit for bit; the prep's
  // vi = (mu^2+var)p - mu^2 p^2 leaves FMA contraction room, so the wider
  // tiers may differ by an ulp.
  Rng rng(43);
  const std::size_t n = 331;  // odd: exercises the vector remainder
  const MatrixF mu = random_matrix_f32(1, n, rng);
  MatrixF var = random_matrix_f32(1, n, rng);
  for (float& v : var.flat()) v = std::fabs(v);
  const float p = 0.9f;
  MatrixF ref_sm(1, n), ref_vi(1, n);
  const KernelOps& scalar = kernel_ops(KernelBackend::kScalar);
  scalar.moment_prep_f32(mu.data(), var.data(), ref_sm.data(), ref_vi.data(),
                         n, p, p * p);
  for (const KernelBackend back : supported_backends()) {
    MatrixF sm(1, n), vi(1, n);
    kernel_ops(back).moment_prep_f32(mu.data(), var.data(), sm.data(),
                                     vi.data(), n, p, p * p);
    EXPECT_EQ(max_scaled_diff(ref_sm, sm), 0.0f) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_vi, vi), 1e-6f) << kernel_backend_name(back);
  }
}

TEST(KernelAgreement, ActivationTileMatchesScalar) {
  Rng rng(44);
  const auto f = PiecewiseLinear::fit_tanh(7);
  const PwlPack pack = pack_pwl(f);
  const std::size_t n = kKernelMomentTile;
  MatrixF mean = random_matrix_f32(1, n, rng);
  MatrixF var = random_matrix_f32(1, n, rng);
  for (float& v : var.flat()) v = std::fabs(v) + 1e-3f;
  // A few saturated lanes (|z| huge) — the regime the denormal clamp covers.
  mean.flat()[3] = 40.0f;
  mean.flat()[7] = -55.0f;
  var.flat()[3] = 1e-4f;
  MatrixF ref_m = mean, ref_v = var;
  std::vector<unsigned char> det(n, 0);
  const bool ref_det = kernel_ops(KernelBackend::kScalar)
                           .act_tile_f32(pack.view(), ref_m.data(),
                                         ref_v.data(), n, kDeterministicVarF,
                                         det.data());
  EXPECT_FALSE(ref_det);  // all variances are safely above the threshold
  for (const KernelBackend back : supported_backends()) {
    MatrixF m = mean, v = var;
    std::vector<unsigned char> d(n, 0);
    const bool has_det = kernel_ops(back).act_tile_f32(
        pack.view(), m.data(), v.data(), n, kDeterministicVarF, d.data());
    EXPECT_EQ(has_det, ref_det) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_m, m), 1e-4f) << kernel_backend_name(back);
    EXPECT_LE(max_scaled_diff(ref_v, v), 1e-4f) << kernel_backend_name(back);
    for (const float vv : v.flat()) EXPECT_GE(vv, 0.0f);
  }
}

TEST(KernelAgreement, ActivationTileFlagsDeterministicLanes) {
  const auto f = PiecewiseLinear::fit_tanh(7);
  const PwlPack pack = pack_pwl(f);
  for (const KernelBackend back : supported_backends()) {
    // One mixed tile: lane 1 deterministic, the rest stochastic.
    float m[4] = {0.3f, -1.2f, 0.8f, 2.0f};
    float v[4] = {0.5f, 0.0f, 0.25f, 1.0f};
    const float m_in1 = m[1], v_in1 = v[1];
    unsigned char det[4] = {9, 9, 9, 9};
    EXPECT_TRUE(kernel_ops(back).act_tile_f32(pack.view(), m, v, 4,
                                              kDeterministicVarF, det))
        << kernel_backend_name(back);
    EXPECT_EQ(det[1], 1);
    // Deterministic lanes are left untouched for the caller's f64 fixup.
    EXPECT_EQ(m[1], m_in1);
    EXPECT_EQ(v[1], v_in1);
    EXPECT_EQ(det[0], 0);
    EXPECT_EQ(det[2], 0);
    EXPECT_EQ(det[3], 0);

    // All-deterministic tile: early exit must still mark every lane.
    float m2[3] = {0.1f, -0.5f, 1.0f};
    float v2[3] = {0.0f, 0.0f, 0.0f};
    unsigned char det2[3] = {0, 0, 0};
    EXPECT_TRUE(kernel_ops(back).act_tile_f32(pack.view(), m2, v2, 3,
                                              kDeterministicVarF, det2));
    for (const unsigned char d : det2) EXPECT_EQ(d, 1);
  }
}

TEST(KernelAgreement, PackedMomentTileBitIdenticalToGemmTile) {
  // Within one tier, the register-blocked tile over packed panels must
  // reproduce that tier's gemm_tile_f32 on the row-major W / W∘W — plus
  // the bias and the max(0, .) clamp — bit for bit: same k-ascending sum
  // per element, same FMA contraction. n covers panel padding (1, 6, 250)
  // and exact panels (16, 512, the latter spanning several column tiles);
  // rows covers the micro-kernel row remainders of every tier; kdim covers
  // a single term, an odd count and the k-blocking of the reference.
  Rng rng(48);
  const std::size_t r0 = 2;  // the tile's rows sit inside a larger batch
  for (const std::size_t n : {1u, 6u, 16u, 250u, 512u}) {
    for (const std::size_t rows : {1u, 5u, 16u}) {
      for (const std::size_t kdim : {1u, 7u, 64u, 250u}) {
        const std::size_t batch = r0 + rows;
        // Non-zero inputs (the reference skips exact zeros); vi takes both
        // signs so the variance clamp is exercised.
        const MatrixF sm = random_matrix_f32(batch, kdim, rng);
        const MatrixF vi = random_matrix_f32(batch, kdim, rng);
        const MatrixF w = random_matrix_f32(kdim, n, rng);
        const MatrixF bias = random_matrix_f32(1, n, rng);
        MatrixF wsq(kdim, n);
        for (std::size_t i = 0; i < w.size(); ++i)
          wsq.flat()[i] = w.flat()[i] * w.flat()[i];
        for (const KernelBackend back : supported_backends()) {
          SCOPED_TRACE(std::string(kernel_backend_name(back)) + " n=" +
                       std::to_string(n) + " rows=" + std::to_string(rows) +
                       " kdim=" + std::to_string(kdim));
          const KernelOps& ops = kernel_ops(back);
          std::vector<float> wp(kernel_panel_floats(kdim, n), -1.0f);
          std::vector<float> wsqp(wp.size(), -1.0f);
          ops.pack_panels_f32(w.data(), n, kdim, n, wp.data());
          ops.pack_panels_f32(wsq.data(), n, kdim, n, wsqp.data());
          // One layout for every tier: element (k, j) at its documented
          // offset, padding lanes zero.
          std::size_t misplaced = 0;
          for (std::size_t k = 0; k < kdim; ++k) {
            for (std::size_t j = 0; j < wp.size() / kdim; ++j) {
              const std::size_t at = (j / kKernelPanelCols) * kdim *
                                         kKernelPanelCols +
                                     k * kKernelPanelCols +
                                     j % kKernelPanelCols;
              misplaced += wp[at] != (j < n ? w(k, j) : 0.0f);
            }
          }
          EXPECT_EQ(misplaced, 0u);
          MatrixF ref_m(batch, n), ref_v(batch, n);
          ops.gemm_tile_f32(sm.data(), w.data(), ref_m.data(), kdim, n, false,
                            r0, batch, 0, n);
          ops.gemm_tile_f32(vi.data(), wsq.data(), ref_v.data(), kdim, n,
                            false, r0, batch, 0, n);
          std::size_t mismatches = 0;
          for (std::size_t j0 = 0; j0 < n; j0 += kKernelMomentTile) {
            const std::size_t j1 = std::min(n, j0 + kKernelMomentTile);
            const std::size_t width = j1 - j0;
            std::vector<float> tm(rows * width), tv(rows * width);
            ops.moment_tile_f32(sm.data(), vi.data(), wp.data(), wsqp.data(),
                                bias.data(), kdim, r0, batch, j0, j1,
                                tm.data(), tv.data());
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t j = j0; j < j1; ++j) {
                const float mean = ref_m(r0 + r, j) + bias.flat()[j];
                const float v = ref_v(r0 + r, j);
                const float var = v < 0.0f ? 0.0f : v;
                const std::size_t t = r * width + (j - j0);
                mismatches +=
                    std::bit_cast<std::uint32_t>(tm[t]) !=
                    std::bit_cast<std::uint32_t>(mean);
                mismatches += std::bit_cast<std::uint32_t>(tv[t]) !=
                              std::bit_cast<std::uint32_t>(var);
              }
            }
          }
          EXPECT_EQ(mismatches, 0u);
        }
      }
    }
  }
}

// ---- fused-path agreement through the public API ---------------------------

TEST(KernelAgreement, RowMajorFusedLayerBitIdenticalToPackedLayer) {
  // The row-major moment_linear_act_into packs into scratch one column
  // tile at a time; it must give exactly what the panels a session packs
  // at load give. n = 250 spans two column tiles and pads the last panel;
  // batch 21 spans two row blocks and leaves a remainder on every tier.
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(49);
  const std::size_t batch = 21, kdim = 37, n = 250;
  DenseLayer layer;
  layer.weight = Matrix(kdim, n);
  for (double& v : layer.weight.flat()) v = rng.normal();
  layer.bias = Matrix(1, n);
  for (double& v : layer.bias.flat()) v = rng.normal();
  const PackedDenseLayer packed = pack_dense_layer(layer);
  const MatrixF w = to_f32(layer.weight);
  const MatrixF wsq = to_f32(square(layer.weight));
  const MatrixF bias = to_f32(layer.bias);
  const MatrixF mean = random_matrix_f32(batch, kdim, rng);
  MatrixF var = random_matrix_f32(batch, kdim, rng);
  for (float& v : var.flat()) v = std::fabs(v);
  const auto f = PiecewiseLinear::fit_tanh(7);
  const PwlPack pack = pack_pwl(f);
  std::vector<float> sm(batch * kdim), vi(batch * kdim);
  FusedScratchView scratch;
  scratch.sm = sm.data();
  scratch.vi = vi.data();
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    MatrixF pm(batch, n), pv(batch, n), rm(batch, n), rv(batch, n);
    moment_linear_act_into(mean.data(), var.data(), batch, kdim, packed, 0.9,
                           f, pack.view(), scratch, pm.data(), pv.data());
    moment_linear_act_into(mean.data(), var.data(), batch, kdim, w.data(),
                           wsq.data(), bias.data(), n, 0.9, f, pack.view(),
                           scratch, rm.data(), rv.data());
    EXPECT_EQ(max_abs_diff(pm, rm), 0.0) << kernel_backend_name(back);
    EXPECT_EQ(max_abs_diff(pv, rv), 0.0) << kernel_backend_name(back);
  }
}

Mlp small_net(Rng& rng) {
  MlpSpec spec;
  spec.dims = {24, 96, 96, 10};
  spec.hidden_act = Activation::kTanh;
  spec.hidden_keep_prob = 0.9;
  return Mlp::make(spec, rng);
}

TEST(KernelAgreement, FusedF32PropagateMatchesScalarBackend) {
  struct Cleanup {
    ~Cleanup() { clear_global_kernel_backend(); }
  } cleanup;
  Rng rng(45);
  const Mlp mlp = small_net(rng);
  const ApDeepSense apd(mlp);
  MeanVar input(6, 24);
  for (double& v : input.mean.flat()) v = rng.normal();
  for (double& v : input.var.flat()) v = std::fabs(rng.normal());

  set_global_kernel_backend(KernelBackend::kScalar);
  const MeanVar ref = apd.propagate(input, Precision::kF32);
  for (const KernelBackend back : supported_backends()) {
    set_global_kernel_backend(back);
    const MeanVar got = apd.propagate(input, Precision::kF32);
    EXPECT_LE(max_abs_diff(ref.mean, got.mean), 1e-4)
        << kernel_backend_name(back);
    EXPECT_LE(max_abs_diff(ref.var, got.var), 1e-4)
        << kernel_backend_name(back);
  }
}

}  // namespace
}  // namespace apds
