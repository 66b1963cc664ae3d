// UncertaintyEstimator adapter over the analytic ApDeepSense propagator.
//
// Prediction runs through per-precision InferenceSessions (planned arenas,
// zero steady-state allocations inside propagate); the legacy ApDeepSense
// propagator is kept for callers that need its recording/explicit-precision
// surface (e.g. the Fig. 1 harness and the input-noise bench).
#pragma once

#include <array>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/apdeepsense.h"
#include "core/inference_session.h"
#include "core/softmax_approx.h"
#include "uncertainty/estimator.h"

namespace apds {

/// Sampling-free estimator: one analytic pass per batch.
class ApdEstimator final : public UncertaintyEstimator {
 public:
  explicit ApdEstimator(const Mlp& mlp, ApDeepSenseConfig config = {},
                        double var_floor = 1e-6);

  std::string name() const override { return "ApDeepSense"; }

  PredictiveGaussian predict_regression(const Matrix& x) const override;
  PredictiveCategorical predict_classification(const Matrix& x) const override;

  const ApDeepSense& propagator() const { return propagator_; }

  /// The session backing predict_* at `precision` (built on first use from
  /// the bound network and the propagator's surrogates, so it fits nothing
  /// and matches propagator() layer for layer; sessions are shared_ptr so
  /// callers may also park them in a SessionRegistry).
  std::shared_ptr<InferenceSession> session(Precision precision) const;

 private:
  ApDeepSense propagator_;
  double var_floor_;
  mutable Mutex sessions_mu_;
  mutable std::array<std::shared_ptr<InferenceSession>, 3> sessions_
      APDS_GUARDED_BY(sessions_mu_);
};

}  // namespace apds
