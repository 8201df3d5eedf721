#pragma once

// Validity classifier — the "better scheme to deal with invalid
// configurations" the paper leaves as future work (sections 7 and 8).
//
// The baseline tuner simply ignores invalid configurations during training,
// so the performance model extrapolates blithely into invalid regions and
// can fill the entire second stage with configurations the driver rejects
// ("the auto-tuner gives no prediction at all" — observed for stereo on the
// GPUs). This classifier learns P(valid | configuration) from the *same*
// stage-1 measurements (the invalid ones are free labels) and filters the
// second-stage candidates.

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/scaler.hpp"

#include "common/rng.hpp"
#include "ml/mlp.hpp"
#include "tuner/features.hpp"
#include "tuner/param.hpp"

namespace pt::tuner {

class ValidityModel {
 public:
  struct Options {
    std::size_t hidden_units = 16;
    std::size_t max_epochs = 400;
    /// Configurations scoring below this are filtered out of stage 2.
    double threshold = 0.5;
    FeatureEncoding encoding = FeatureEncoding::kLog2;
  };

  ValidityModel() : ValidityModel(Options{}) {}
  explicit ValidityModel(Options options) : options_(options) {}

  /// Train on labelled configurations. Requires at least one example of
  /// each class; with a single-class sample the model stays unfitted (and
  /// score() reports everything valid — a no-op filter).
  void fit(const ParamSpace& space, const std::vector<Configuration>& valid,
           const std::vector<Configuration>& invalid, common::Rng& rng);

  [[nodiscard]] bool fitted() const noexcept { return net_ != nullptr; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// P(valid)-like score in [0, 1]; 1.0 when unfitted.
  [[nodiscard]] double score(const Configuration& config) const;

  /// Classification at the configured threshold; true when unfitted.
  [[nodiscard]] bool predict_valid(const Configuration& config) const {
    return score(config) >= options_.threshold;
  }

  /// Confusion counts of a labelled set ("valid" is the positive class).
  struct Confusion {
    std::size_t true_positive = 0;   // valid, predicted valid
    std::size_t false_positive = 0;  // invalid, predicted valid
    std::size_t false_negative = 0;  // valid, predicted invalid
    std::size_t true_negative = 0;   // invalid, predicted invalid

    [[nodiscard]] std::size_t total() const noexcept {
      return true_positive + false_positive + false_negative + true_negative;
    }
    [[nodiscard]] double accuracy() const noexcept {
      const std::size_t n = total();
      return n == 0 ? 0.0
                    : static_cast<double>(true_positive + true_negative) /
                          static_cast<double>(n);
    }
  };

  /// Classify a labelled set and tally the confusion matrix.
  [[nodiscard]] Confusion confusion(
      const std::vector<Configuration>& valid,
      const std::vector<Configuration>& invalid) const;

  /// Fraction of a labelled set classified correctly (for evaluation).
  [[nodiscard]] double accuracy(const ParamSpace& space,
                                const std::vector<Configuration>& valid,
                                const std::vector<Configuration>& invalid) const;

 private:
  Options options_;
  ParamSpace space_;
  FeatureCodec codec_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Mlp> net_;
};

}  // namespace pt::tuner
