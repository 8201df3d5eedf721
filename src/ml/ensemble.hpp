#pragma once

// Bagging ensemble of MLPs — the paper's model-building step (section 5.2):
// the training data is split into k parts and k networks are trained, each on
// all the data except one part; the prediction is the mean of the k outputs.
// The paper uses k = 11.
//
// Every member has the paper's shape: one sigmoid hidden layer (of any
// width) and one linear output. The constructor and restore() throw
// std::invalid_argument for any other shape.
//
// Feature standardization is owned by the ensemble (fitted on the full
// training set); target transforms (the paper's log trick) are applied by the
// caller so they can be ablated independently.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "ml/trainer.hpp"

namespace pt::ml {

class BaggingEnsemble {
 public:
  struct Options {
    std::size_t k = 11;  // paper's value
    /// Exactly one sigmoid layer (paper: 30 units). A vector because
    /// existing callers set it as one.
    std::vector<LayerSpec> hidden_layers = {
        LayerSpec{30, Activation::kSigmoid}};
    RpropTrainer::Options trainer{};
  };

  BaggingEnsemble() : BaggingEnsemble(Options()) {}
  explicit BaggingEnsemble(Options options);

  /// Reusable scratch buffers for predict_batch_into: the scaled copy of the
  /// query matrix plus the two layer-output ping-pong buffers. Keeping one
  /// per worker makes a chunked prediction scan allocation-free.
  struct PredictScratch {
    Matrix scaled;
    Matrix layer_a;
    Matrix layer_b;
  };

  /// Train k networks with leave-one-fold-out bagging, in parallel on the
  /// global thread pool. The fold split and one forked RNG per member are
  /// derived from `rng` before dispatch, so the result is bit-identical for
  /// every pool size (including 1). Replaces any previous state. If the
  /// dataset has fewer rows than k, k is clamped down.
  void fit(const Dataset& data, common::Rng& rng);

  [[nodiscard]] bool fitted() const noexcept { return !members_.empty(); }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] const Mlp& member(std::size_t i) const { return members_[i]; }
  /// Per-member training curves from the last fit() (member order; empty
  /// for a restored ensemble). Lets observers replay per-epoch losses
  /// deterministically after concurrent training finishes.
  [[nodiscard]] const std::vector<TrainResult>& train_results() const noexcept {
    return train_results_;
  }
  [[nodiscard]] const StandardScaler& scaler() const noexcept {
    return scaler_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Mean prediction over the members for one sample.
  [[nodiscard]] double predict(std::span<const double> x) const;

  /// Batch prediction; returns one value per row of x (single-output nets).
  [[nodiscard]] std::vector<double> predict_batch(const Matrix& x) const;

  /// Batch prediction into a caller-owned output vector and scratch —
  /// equivalent to predict_batch but allocation-free once the buffers are
  /// warm. Safe to call concurrently with distinct scratch objects.
  void predict_batch_into(const Matrix& x, std::vector<double>& out,
                          PredictScratch& scratch) const;

  /// Per-member predictions for one sample (exposed for uncertainty
  /// estimation: the spread is a cheap confidence signal).
  [[nodiscard]] std::vector<double> member_predictions(
      std::span<const double> x) const;

  /// Standard deviation of member predictions for one sample.
  [[nodiscard]] double predictive_spread(std::span<const double> x) const;

  /// Rebuild a fitted ensemble from persisted state (see ml/serialize.hpp).
  /// Throws std::invalid_argument unless every member has the ensemble's
  /// shape and the scaler's input width.
  void restore(Options options, StandardScaler scaler,
               std::vector<Mlp> members);

 private:
  Options options_;
  StandardScaler scaler_;
  std::vector<Mlp> members_;
  std::vector<TrainResult> train_results_;
};

}  // namespace pt::ml
