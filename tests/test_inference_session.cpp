// InferenceSession: the zero-alloc steady-state contract (the whole point
// of planned arenas), bit-identity between a standalone session and the
// ApDeepSense/ApdEstimator facades over one, layer recording, and arena
// replanning.
#include "core/inference_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "core/apdeepsense.h"
#include "obs/alloc_stats.h"
#include "platform/thread_pool.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "uncertainty/apd_estimator.h"

namespace apds {
namespace {

Mlp random_mlp(std::vector<std::size_t> dims, Activation act,
               double keep_prob, Rng& rng) {
  MlpSpec spec;
  spec.dims = std::move(dims);
  spec.hidden_act = act;
  spec.output_act = Activation::kIdentity;
  spec.hidden_keep_prob = keep_prob;
  return Mlp::make(spec, rng);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  return m;
}

/// Restore thread-pool width and kernel backend after a test that pins
/// them, even on assertion failure.
struct GlobalKnobGuard {
  ~GlobalKnobGuard() {
    clear_global_kernel_backend();
    set_global_threads(0);
  }
};

TEST(InferenceSession, ShapesAndMetadataMatchTheNetwork) {
  Rng rng(11);
  const Mlp mlp = random_mlp({6, 16, 16, 3}, Activation::kRelu, 0.9, rng);
  const InferenceSession session(mlp);
  EXPECT_EQ(session.num_layers(), 3u);
  EXPECT_EQ(session.input_dim(), 6u);
  EXPECT_EQ(session.output_dim(), 3u);
  EXPECT_EQ(session.precision(), Precision::kF64);
  EXPECT_GT(session.weight_bytes(), 0u);
  EXPECT_GT(session.id(), 0u);

  const Matrix x = random_matrix(5, 6, rng);
  const MeanVar out = session.propagate(x);
  EXPECT_EQ(out.batch(), 5u);
  EXPECT_EQ(out.dim(), 3u);
  EXPECT_EQ(session.propagate_count(), 1u);
}

TEST(InferenceSession, F32WeightBytesAreThePaddedPanelsOnly) {
  // An f32 session keeps W and W∘W only as zero-padded column panels (plus
  // the f32 bias): no row-major copy survives packing. Widths 50 and 6 are
  // not multiples of the panel width, so the padding is counted too.
  Rng rng(12);
  const std::vector<std::size_t> dims = {7, 50, 33, 6};
  const Mlp mlp = random_mlp(dims, Activation::kRelu, 0.9, rng);
  SessionConfig cfg;
  cfg.precision = Precision::kF32;
  const InferenceSession session(mlp, cfg);
  std::size_t expected = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l)
    expected += (2 * kernel_panel_floats(dims[l], dims[l + 1]) +
                 dims[l + 1]) * sizeof(float);
  EXPECT_EQ(session.weight_bytes(), expected);
}

// ApDeepSense::propagate is the long-standing public entry point; it now
// forwards to the propagator's own session, and this test pins that a
// plain ApDeepSense (no estimator around it) still gives exactly what a
// standalone session gives, at every precision.
TEST(InferenceSession, BitIdenticalToLegacyPropagateAcrossPrecisions) {
  Rng rng(29);
  const Mlp mlp = random_mlp({10, 24, 24, 4}, Activation::kTanh, 0.85, rng);
  const ApDeepSense apd(mlp);
  const Matrix x = random_matrix(7, 10, rng);
  const MeanVar input = MeanVar::point(x);

  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    SCOPED_TRACE(precision_name(precision));
    SessionConfig cfg;
    cfg.precision = precision;
    const InferenceSession session(mlp, cfg);

    const MeanVar facade = apd.propagate(input, precision);
    MeanVar out;
    session.propagate(input, out);
    ASSERT_EQ(out.batch(), facade.batch());
    ASSERT_EQ(out.dim(), facade.dim());
    for (std::size_t i = 0; i < out.batch(); ++i)
      for (std::size_t j = 0; j < out.dim(); ++j) {
        EXPECT_EQ(out.mean(i, j), facade.mean(i, j)) << i << "," << j;
        EXPECT_EQ(out.var(i, j), facade.var(i, j)) << i << "," << j;
      }
  }
}

// ApDeepSense and ApdEstimator are facades: every propagate runs through
// the propagator's lazily built session at that precision, built from the
// propagator's surrogates instead of a fresh fit. A standalone session that
// fits its own surrogates must agree with both bit for bit, and estimator
// and propagator must share one session (one weight pack) per precision.
TEST(InferenceSession, EstimatorSessionBitIdenticalToStandaloneSession) {
  Rng rng(31);
  const Mlp mlp = random_mlp({10, 24, 24, 4}, Activation::kTanh, 0.85, rng);
  const ApdEstimator estimator(mlp);
  const ApDeepSense& apd = estimator.propagator();
  const MeanVar input = MeanVar::point(random_matrix(7, 10, rng));

  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    SCOPED_TRACE(precision_name(precision));
    SessionConfig cfg;
    cfg.precision = precision;
    const InferenceSession standalone(mlp, cfg);
    const std::shared_ptr<InferenceSession> owned =
        estimator.session(precision);
    ASSERT_EQ(owned->precision(), precision);
    EXPECT_EQ(owned.get(), apd.session(precision).get());

    MeanVar want, got;
    standalone.propagate(input, want);
    owned->propagate(input, got);
    const MeanVar facade = apd.propagate(input, precision);
    ASSERT_EQ(got.batch(), want.batch());
    ASSERT_EQ(got.dim(), want.dim());
    ASSERT_EQ(facade.batch(), want.batch());
    ASSERT_EQ(facade.dim(), want.dim());
    for (std::size_t i = 0; i < got.batch(); ++i)
      for (std::size_t j = 0; j < got.dim(); ++j) {
        EXPECT_EQ(got.mean(i, j), want.mean(i, j)) << i << "," << j;
        EXPECT_EQ(got.var(i, j), want.var(i, j)) << i << "," << j;
        EXPECT_EQ(facade.mean(i, j), want.mean(i, j)) << i << "," << j;
        EXPECT_EQ(facade.var(i, j), want.var(i, j)) << i << "," << j;
      }
  }
}

// Layer recording is the f64 validation surface: the recorded last layer is
// the propagate output itself, and asking an f32 session to record fails
// instead of silently recording something else.
TEST(InferenceSession, LayerRecordingIsF64Only) {
  Rng rng(37);
  const Mlp mlp = random_mlp({6, 12, 9, 3}, Activation::kTanh, 0.9, rng);
  const MeanVar input = MeanVar::point(random_matrix(4, 6, rng));

  const InferenceSession f64(mlp);
  MeanVar out;
  std::vector<MeanVar> layers;
  f64.propagate(input, out, &layers);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].dim(), 12u);
  EXPECT_EQ(layers[1].dim(), 9u);
  EXPECT_EQ(layers[2].mean, out.mean);
  EXPECT_EQ(layers[2].var, out.var);

  SessionConfig cfg;
  cfg.precision = Precision::kF32;
  const InferenceSession f32(mlp, cfg);
  EXPECT_THROW(f32.propagate(input, out, &layers), InvalidArgument);
}

// The tentpole claim: a warmed-up propagate() into a reused output batch
// performs ZERO heap allocations, at every precision, on both the scalar
// and the natively-dispatched kernel tiers, with and without pool workers.
// Process-wide counters are used so a worker thread allocating would fail
// the test too, not just the calling thread.
TEST(InferenceSession, SteadyStatePropagateAllocatesNothing) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  GlobalKnobGuard restore;
  Rng rng(43);
  const Mlp mlp = random_mlp({12, 32, 32, 5}, Activation::kRelu, 0.9, rng);
  const Matrix x = random_matrix(16, 12, rng);
  const MeanVar input = MeanVar::point(x);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    for (const KernelBackend backend :
         {KernelBackend::kScalar, best_supported_backend()}) {
      set_global_kernel_backend(backend);
      for (const Precision precision : {Precision::kF64, Precision::kF32}) {
        SCOPED_TRACE(std::string(precision_name(precision)) + "/" +
                     kernel_backend_name(backend) + "/t" +
                     std::to_string(threads));
        SessionConfig cfg;
        cfg.precision = precision;
        const InferenceSession session(mlp, cfg);
        MeanVar out;
        // Warmup: plans the arena, sizes `out`, touches every pool worker.
        for (int i = 0; i < 3; ++i) session.propagate(input, out);

        const obs::AllocCounters before = obs::process_alloc_counters();
        for (int i = 0; i < 5; ++i) session.propagate(input, out);
        const obs::AllocCounters delta =
            obs::process_alloc_counters() - before;
        EXPECT_EQ(delta.allocs, 0u);
        EXPECT_EQ(delta.bytes, 0u);
      }
    }
  }
}

TEST(InferenceSession, LargerBatchReplansThenReturnsToSteadyState) {
  ASSERT_TRUE(obs::alloc_hooks_active());
  Rng rng(57);
  const Mlp mlp = random_mlp({8, 20, 3}, Activation::kRelu, 0.9, rng);
  const InferenceSession session(mlp);
  EXPECT_GT(session.planned_bytes(32), session.planned_bytes(4));

  const MeanVar small = MeanVar::point(random_matrix(4, 8, rng));
  const MeanVar large = MeanVar::point(random_matrix(32, 8, rng));
  MeanVar out;
  session.propagate(small, out);
  // Growing the batch replans (allocates once), then is steady again.
  session.propagate(large, out);
  session.propagate(large, out);
  const obs::AllocCounters before = obs::process_alloc_counters();
  session.propagate(large, out);
  // A smaller batch fits the larger plan: still zero allocations.
  session.propagate(small, out);
  const obs::AllocCounters delta = obs::process_alloc_counters() - before;
  EXPECT_EQ(delta.allocs, 0u);
}

}  // namespace
}  // namespace apds
