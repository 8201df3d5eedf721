#pragma once

// Input-aware performance model — the paper's "integrating problem
// parameters into the performance model" future work (section 8; cf. Liu et
// al.'s cross-input framework in its related work).
//
// The plain AnnPerformanceModel answers "how fast is configuration c" for
// one fixed problem instance. This model adds the problem parameters (e.g.
// the image width/height of the convolution) as extra network inputs, so
// one model serves a family of instances and can extrapolate to problem
// sizes never measured.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/batched.hpp"
#include "ml/ensemble.hpp"
#include "tuner/features.hpp"
#include "tuner/param.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {

/// A problem instance: named numeric parameters (sizes, depths, ...).
struct ProblemInstance {
  std::vector<double> values;  // aligned with the model's parameter names
};

/// One labelled observation: configuration + instance -> time.
struct InputAwareSample {
  Configuration config;
  ProblemInstance instance;
  double time_ms = 0.0;
};

class InputAwarePerformanceModel {
 public:
  struct Options {
    ml::BaggingEnsemble::Options ensemble{};
    bool log_targets = true;
    FeatureEncoding encoding = FeatureEncoding::kLog2;
    /// Apply log2 to problem parameters as well (sizes are scale-natured).
    bool log2_problem_parameters = true;
  };

  InputAwarePerformanceModel() : InputAwarePerformanceModel(Options{}) {}
  explicit InputAwarePerformanceModel(Options options);

  /// Fit on (configuration, instance, time) observations, as
  /// AnnPerformanceModel::fit does. `problem_parameter_names` fixes the
  /// instance layout (and the feature order); every sample's instance must
  /// have that many values. Throws std::invalid_argument on an empty sample
  /// set, a non-positive time or a bad instance.
  void fit(const ParamSpace& space,
           std::vector<std::string> problem_parameter_names,
           const std::vector<InputAwareSample>& samples, common::Rng& rng);

  [[nodiscard]] bool fitted() const noexcept { return ensemble_->fitted(); }
  [[nodiscard]] const std::vector<std::string>& problem_parameter_names()
      const noexcept {
    return problem_names_;
  }

  [[nodiscard]] double predict_ms(const Configuration& config,
                                  const ProblemInstance& instance) const;

  /// Predictions for many configurations at one instance (bulk scan).
  [[nodiscard]] std::vector<double> predict_many_ms(
      const std::vector<Configuration>& configs,
      const ProblemInstance& instance) const;

  /// Predicted times for the flat-index range [begin, end) of the space at
  /// one instance — the parallel chunked scan through the fp64 reference
  /// (see AnnPerformanceModel::predict_range_ms).
  [[nodiscard]] std::vector<double> predict_range_ms(
      std::uint64_t begin, std::uint64_t end,
      const ProblemInstance& instance) const;

  /// Streaming top-m selection over [begin, end) at one instance (see
  /// AnnPerformanceModel::predict_scan_top_m for semantics).
  [[nodiscard]] TopMScanResult predict_scan_top_m(
      std::uint64_t begin, std::uint64_t end, std::size_t m,
      const ProblemInstance& instance, const ScanFilter& filter = {}) const;

  /// The scan engine for one instance (see
  /// AnnPerformanceModel::scan_engine). The fp32 engine is certified per
  /// instance: its features enter the certification box as degenerate
  /// [v, v] tail ranges, so an engine for another instance repacks.
  [[nodiscard]] ScanEngine scan_engine(const ProblemInstance& instance) const;

  /// Feature vector (configuration features then instance features).
  [[nodiscard]] std::vector<double> encode(
      const Configuration& config, const ProblemInstance& instance) const;

 private:
  /// Instance features with the optional log2 applied (validated once, then
  /// reused for every row of a scan).
  [[nodiscard]] std::vector<double> instance_features(
      const ProblemInstance& instance) const;

  Options options_;
  ParamSpace space_;
  FeatureCodec codec_;
  RangeEncoder range_encoder_;
  std::vector<std::string> problem_names_;
  // Target standardization and log transform (see AnnPerformanceModel).
  OutputTransform output_;
  // Shared with scan engines; copy/move rules as in AnnPerformanceModel.
  std::shared_ptr<const ml::BaggingEnsemble> ensemble_;
  ml::BatchedEnsembleCache batched_;
};

}  // namespace pt::tuner
