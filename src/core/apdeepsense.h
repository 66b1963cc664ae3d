// ApDeepSense: sampling-free uncertainty propagation through a pre-trained
// dropout MLP (the paper's primary contribution, Section III).
//
// A single analytic pass alternates the closed-form dropout-linear moments
// (moment_linear) with the closed-form PWL activation moments
// (moment_activation), producing the full diagonal-Gaussian predictive
// distribution at the output. No retraining, no sampling.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/precision.h"
#include "common/thread_annotations.h"
#include "core/gaussian_vec.h"
#include "core/inference_session.h"
#include "core/piecewise_linear.h"
#include "nn/mlp.h"

namespace apds {

struct ApDeepSenseConfig {
  /// Piece count for the tanh/sigmoid surrogates (paper uses 7).
  std::size_t saturating_pieces = 7;
};

/// Analytic uncertainty propagator bound to one network.
///
/// Construction resolves one PWL surrogate per layer, fitting each distinct
/// activation once (PiecewiseLinear::for_activations): a net with four tanh
/// layers pays for one tanh fit. Every propagate runs through session(p),
/// the InferenceSession for that precision, built on first use from the
/// bound network and these surrogates; the session holds the only packed
/// copy of the weights at that precision.
class ApDeepSense {
 public:
  explicit ApDeepSense(const Mlp& mlp, ApDeepSenseConfig config = {});

  /// Bind with explicit per-layer surrogates (one per weight layer), e.g.
  /// from calibrate_surrogates() in adaptive_surrogate.h.
  ApDeepSense(const Mlp& mlp, std::vector<PiecewiseLinear> surrogates);

  /// Propagate a deterministic input batch; returns the Gaussian output.
  /// Runs in the ambient global_precision() (see overload below).
  MeanVar propagate(const Matrix& x) const;

  /// Propagate an uncertain (Gaussian) input batch — e.g. sensor noise
  /// models feeding uncertainty in at the input — at global_precision().
  MeanVar propagate(const MeanVar& input) const;

  /// Propagate at an explicit precision regardless of the global setting:
  /// kF64 is the reference path; kF32 runs the whole layer stack through
  /// the fused single-precision kernels and widens the result. API types
  /// stay double either way.
  MeanVar propagate(const MeanVar& input, Precision precision) const;

  /// Single-input convenience.
  GaussianVec propagate_one(std::span<const double> x) const;

  /// Propagate and also record the per-layer post-activation Gaussians
  /// (used by the Fig. 1 toy validation and by tests). layer_outputs[l]
  /// is the distribution after layer l's activation. Always runs the f64
  /// reference path — this is the validation surface the Fig. 1 harness
  /// and the precision-agreement tests compare against, so it must not
  /// follow the global precision switch.
  MeanVar propagate_recording(const MeanVar& input,
                              std::vector<MeanVar>& layer_outputs) const;

  /// The session every propagate at `precision` runs through. Built on
  /// first use (thread-safe), then shared: a process that only ever runs
  /// one precision packs the weights once. Callers that serve requests
  /// directly (run_system_perf, the examples) propagate through it too.
  std::shared_ptr<InferenceSession> session(Precision precision) const;

  const Mlp& network() const { return *mlp_; }

  /// The PWL surrogate used for layer l's activation.
  const PiecewiseLinear& surrogate(std::size_t l) const;

  /// Every layer's surrogate, in layer order (one per weight layer).
  const std::vector<PiecewiseLinear>& surrogates() const {
    return surrogates_;
  }

 private:
  const Mlp* mlp_;  ///< non-owning; must outlive this object
  std::vector<PiecewiseLinear> surrogates_;  ///< one per layer

  mutable Mutex sessions_mu_;
  mutable std::array<std::shared_ptr<InferenceSession>, 2> sessions_
      APDS_GUARDED_BY(sessions_mu_);
};

}  // namespace apds
