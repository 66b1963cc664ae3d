#include "conv/conv_apdeepsense.h"

#include "obs/trace.h"

namespace apds {

namespace {

/// Surrogates for the conv stack followed by the dense head, resolved in
/// one call so an activation both use is fitted once.
std::vector<PiecewiseLinear> net_surrogates(const ConvNet& net,
                                            std::size_t pieces) {
  APDS_CHECK(pieces >= 3);
  std::vector<Activation> acts;
  for (std::size_t l = 0; l < net.num_conv_layers(); ++l)
    acts.push_back(net.conv(l).act);
  for (const Activation act : net.head().activations()) acts.push_back(act);
  return PiecewiseLinear::for_activations(acts, pieces);
}

}  // namespace

ConvApDeepSense::ConvApDeepSense(const ConvNet& net, ApDeepSenseConfig config)
    : ConvApDeepSense(net, net_surrogates(net, config.saturating_pieces)) {}

ConvApDeepSense::ConvApDeepSense(const ConvNet& net,
                                 std::vector<PiecewiseLinear> surrogates)
    : net_(&net),
      conv_surrogates_(surrogates.begin(),
                       surrogates.begin() + static_cast<std::ptrdiff_t>(
                                                net.num_conv_layers())),
      head_(net.head(),
            std::vector<PiecewiseLinear>(
                surrogates.begin() +
                    static_cast<std::ptrdiff_t>(net.num_conv_layers()),
                surrogates.end())) {}

MeanVar ConvApDeepSense::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

MeanVar ConvApDeepSense::propagate(const MeanVar& input) const {
  APDS_TRACE_SCOPE("apd.conv_propagate");
  MeanVar h = input;
  for (std::size_t l = 0; l < net_->num_conv_layers(); ++l) {
    const Conv1dLayer& layer = net_->conv(l);
    TraceSpan span("apd.conv_layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in_ch\":" + std::to_string(layer.in_channels) +
                    ",\"out_ch\":" + std::to_string(layer.out_channels) +
                    ",\"kernel\":" + std::to_string(layer.kernel) +
                    ",\"in_len\":" + std::to_string(net_->layer_in_len(l)) +
                    ",\"act\":\"" + activation_name(layer.act) + "\"");
    h = moment_conv1d(layer, h, net_->layer_in_len(l), conv_surrogates_[l]);
  }
  return head_.propagate(h);
}

}  // namespace apds
