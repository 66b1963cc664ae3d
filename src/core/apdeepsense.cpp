#include "core/apdeepsense.h"

namespace apds {

ApDeepSense::ApDeepSense(const Mlp& mlp, ApDeepSenseConfig config)
    : mlp_(&mlp) {
  APDS_CHECK(config.saturating_pieces >= 3);
  surrogates_ = PiecewiseLinear::for_activations(mlp.activations(),
                                                 config.saturating_pieces);
}

ApDeepSense::ApDeepSense(const Mlp& mlp,
                         std::vector<PiecewiseLinear> surrogates)
    : mlp_(&mlp), surrogates_(std::move(surrogates)) {
  APDS_CHECK_MSG(surrogates_.size() == mlp.num_layers(),
                 "ApDeepSense: one surrogate per layer required");
}

std::shared_ptr<InferenceSession> ApDeepSense::session(
    Precision precision) const {
  const std::size_t idx = static_cast<std::size_t>(precision);
  APDS_CHECK(idx < sessions_.size());
  MutexLock lk(&sessions_mu_);
  if (!sessions_[idx]) {
    SessionConfig cfg;
    cfg.precision = precision;
    sessions_[idx] =
        std::make_shared<InferenceSession>(*mlp_, surrogates_, cfg);
  }
  return sessions_[idx];
}

MeanVar ApDeepSense::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

MeanVar ApDeepSense::propagate(const MeanVar& input) const {
  return propagate(input, global_precision());
}

MeanVar ApDeepSense::propagate(const MeanVar& input,
                               Precision precision) const {
  return session(precision)->propagate(input);
}

GaussianVec ApDeepSense::propagate_one(std::span<const double> x) const {
  const MeanVar out = propagate(MeanVar::point(Matrix::row_vector(x)));
  return out.row(0);
}

MeanVar ApDeepSense::propagate_recording(
    const MeanVar& input, std::vector<MeanVar>& layer_outputs) const {
  MeanVar out;
  session(Precision::kF64)->propagate(input, out, &layer_outputs);
  return out;
}

const PiecewiseLinear& ApDeepSense::surrogate(std::size_t l) const {
  APDS_CHECK(l < surrogates_.size());
  return surrogates_[l];
}

}  // namespace apds
