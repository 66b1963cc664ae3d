// Fully-connected neural network with dropout — the substrate the paper's
// method operates on.
//
// Dropout convention (matches Gal & Ghahramani and the paper's Eq. 2):
// each layer has a keep-probability p applied to its *input* units. During
// stochastic forward passes a Bernoulli(p) 0/1 mask multiplies the input
// (equivalently: rows of W are zeroed); no inverted rescaling is applied.
// The deterministic forward pass instead scales each layer's input by p,
// which is exactly the expectation of the mask and keeps training-time and
// test-time magnitudes consistent (paper Eq. 7 with sigma = 0).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "tensor/matrix.h"

namespace apds {

/// One dense layer: y = f((x ∘ mask) W + b).
struct DenseLayer {
  Matrix weight;     ///< [in, out]
  Matrix bias;       ///< [1, out]
  Activation act = Activation::kIdentity;
  double keep_prob = 1.0;  ///< Bernoulli keep-probability of each input unit

  std::size_t in_dim() const { return weight.rows(); }
  std::size_t out_dim() const { return weight.cols(); }
};

/// Per-layer parameter gradients produced by Mlp::backward.
struct MlpGradients {
  std::vector<Matrix> dweight;
  std::vector<Matrix> dbias;
};

/// Activations cached by a training forward pass for backprop.
struct ForwardCache {
  std::vector<Matrix> masked_inputs;  ///< (x ∘ mask) per layer
  std::vector<Matrix> masks;          ///< 0/1 dropout masks per layer
  std::vector<Matrix> preacts;        ///< xW + b per layer
  Matrix output;                      ///< f_L(preact_L)
};

/// Architecture description used to build an Mlp.
struct MlpSpec {
  /// Layer widths, e.g. {250, 512, 512, 512, 512, 250} is the paper's
  /// "5-layer" network.
  std::vector<std::size_t> dims;
  Activation hidden_act = Activation::kRelu;
  Activation output_act = Activation::kIdentity;
  /// Keep-probability for inputs of hidden-to-hidden layers (layers >= 1).
  double hidden_keep_prob = 0.9;
  /// Keep-probability for the raw input of the first layer (usually 1).
  double input_keep_prob = 1.0;
};

/// Fully-connected network; owns its parameters.
class Mlp {
 public:
  Mlp() = default;

  /// Build with He (ReLU) or Glorot (otherwise) initialization.
  static Mlp make(const MlpSpec& spec, Rng& rng);

  /// Build from explicit layers (used by model loading and tests).
  static Mlp from_layers(std::vector<DenseLayer> layers);

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t input_dim() const;
  std::size_t output_dim() const;
  const DenseLayer& layer(std::size_t l) const;
  DenseLayer& mutable_layer(std::size_t l);

  /// Total number of scalar parameters.
  std::size_t num_params() const;

  /// Each layer's activation, in layer order.
  std::vector<Activation> activations() const;

  /// Deterministic inference: expectation of the dropout mask folded into
  /// the weights (x scaled by keep_prob at each layer).
  Matrix forward_deterministic(const Matrix& x) const;

  /// One stochastic pass with freshly sampled dropout masks (MCDrop's inner
  /// loop).
  Matrix forward_stochastic(const Matrix& x, Rng& rng) const;

  /// Stochastic pass that also records every post-activation hidden vector
  /// for the single input row `x` (Fig. 1 toy experiment). hidden[l] is the
  /// output of layer l.
  Matrix forward_stochastic_recording(const Matrix& x, Rng& rng,
                                      std::vector<Matrix>& hidden) const;

  /// Training-time stochastic forward pass; fills `cache` for backward().
  Matrix forward_train(const Matrix& x, Rng& rng, ForwardCache& cache) const;

  /// Backprop `grad_output` (dL/d output) through the cached pass.
  MlpGradients backward(const ForwardCache& cache,
                        const Matrix& grad_output) const;

  /// Flat views over all parameters / matching gradient structure, used by
  /// the optimizers.
  std::vector<Matrix*> parameters();
  static std::vector<Matrix*> gradient_ptrs(MlpGradients& g);

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace apds
