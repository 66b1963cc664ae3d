// ApDeepSense extended to convolutional networks (paper Section VI future
// work): one analytic pass through the conv stack (moment_conv1d) and the
// dense head (moment_linear + moment_activation) yields the predictive
// Gaussian without sampling, exactly as for dense networks.
#pragma once

#include "conv/conv_net.h"
#include "conv/moment_conv.h"
#include "core/apdeepsense.h"

namespace apds {

class ConvApDeepSense {
 public:
  explicit ConvApDeepSense(const ConvNet& net, ApDeepSenseConfig config = {});

  /// Deterministic input batch -> Gaussian over network outputs.
  MeanVar propagate(const Matrix& x) const;

  /// Gaussian input batch (e.g. modelled sensor noise) -> Gaussian output.
  MeanVar propagate(const MeanVar& input) const;

 private:
  /// `surrogates` holds the conv layers' surrogates, then the head's.
  ConvApDeepSense(const ConvNet& net,
                  std::vector<PiecewiseLinear> surrogates);

  const ConvNet* net_;  ///< non-owning; must outlive this object
  std::vector<PiecewiseLinear> conv_surrogates_;
  ApDeepSense head_;  ///< analytic propagator over the dense head
};

}  // namespace apds
