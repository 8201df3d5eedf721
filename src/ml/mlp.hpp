#pragma once

// Feed-forward fully-connected network (multi-layer perceptron).
//
// The paper's performance model is an MLP with a single hidden layer of 30
// sigmoid units and a linear output trained on log execution times. That is
// the only shape left (is_member_shape): ml/member_epoch.hpp trains it, and
// forward_batch_into runs its fp64 inference. The class keeps a layer list
// only because BaggingEnsemble::Options::hidden_layers is still a vector of
// LayerSpec, which callers such as the end-to-end benchmark set to pick a
// hidden-unit count.

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/activation.hpp"
#include "ml/matrix.hpp"

namespace pt::ml {

/// One layer: `units` neurons with the given activation.
struct LayerSpec {
  std::size_t units;
  Activation activation;
};

/// The members' shape: one sigmoid hidden layer of any width, then one
/// linear output.
[[nodiscard]] bool is_member_shape(
    const std::vector<LayerSpec>& layers) noexcept;

class Mlp {
 public:
  /// Construct with the given input width and layer stack (last layer is the
  /// output). Weights start at zero; call init_weights() before use.
  Mlp(std::size_t inputs, std::vector<LayerSpec> layers);

  /// Xavier/Glorot uniform initialization.
  void init_weights(common::Rng& rng);

  [[nodiscard]] std::size_t input_size() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return layers_.back().units;
  }
  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] const std::vector<LayerSpec>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Weight matrix of layer l, shape (fan_in, units).
  [[nodiscard]] Matrix& weights(std::size_t l) noexcept { return weights_[l]; }
  [[nodiscard]] const Matrix& weights(std::size_t l) const noexcept {
    return weights_[l];
  }
  [[nodiscard]] std::vector<double>& biases(std::size_t l) noexcept {
    return biases_[l];
  }
  [[nodiscard]] const std::vector<double>& biases(std::size_t l) const noexcept {
    return biases_[l];
  }

  /// Predict a single sample: forward_batch on a one-row batch, so the
  /// result equals that row of any batch prediction bit for bit.
  [[nodiscard]] std::vector<double> forward(std::span<const double> x) const;

  /// Predict a batch; rows of X are samples. Returns (X.rows, output_size).
  [[nodiscard]] Matrix forward_batch(const Matrix& x) const;

  /// Allocation-free batch prediction: layer outputs ping-pong between the
  /// two caller-owned scratch matrices (reshaped as needed, reusing their
  /// storage), and the returned reference points at whichever holds the
  /// final layer. Neither scratch matrix may alias x. This is the bulk
  /// prediction-scan hot path.
  Matrix& forward_batch_into(const Matrix& x, Matrix& scratch_a,
                             Matrix& scratch_b) const;

 private:
  std::size_t inputs_;
  std::vector<LayerSpec> layers_;
  std::vector<Matrix> weights_;              // (fan_in, units) per layer
  std::vector<std::vector<double>> biases_;  // (units) per layer
};

}  // namespace pt::ml
