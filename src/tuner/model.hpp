#pragma once

// ANN-based performance model (paper section 5.2): maps a tuning
// configuration to a predicted execution time via a bagging ensemble of
// sigmoid MLPs trained on the logarithm of measured times.
//
// Feature encoding: the paper feeds parameter values directly. Power-of-two
// parameters (work-group sizes 1..128) are extremely skewed on a linear
// scale, so by default such dimensions are fed as log2(value) — an
// information-preserving reparameterization (the exponent *is* the natural
// coordinate of those knobs). kRaw reproduces the paper's literal encoding;
// the ablation bench compares both.
//
// Problem parameters (the paper's section 8 future work, "integrating
// problem parameters into the performance model"; cf. Liu et al.'s
// cross-input framework in its related work): a sample may carry the
// instance it was measured on (e.g. the convolution's image size). Its
// values are fed as log2(value) after the configuration's features, so one
// model serves a family of instances and can interpolate to sizes never
// measured. A model fitted without them predicts one fixed instance.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ml/batched.hpp"
#include "ml/ensemble.hpp"
#include "tuner/features.hpp"
#include "tuner/param.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {

/// A problem instance: the values of the problem parameters (sizes,
/// depths, ...), in the order the model was fitted with. Empty for a model
/// of one fixed instance.
struct ProblemInstance {
  std::vector<double> values;
};

/// One labelled observation for model fitting: configuration (and problem
/// instance) -> time.
struct TrainingSample {
  Configuration config;
  double time_ms = 0.0;
  ProblemInstance instance{};
};

class AnnPerformanceModel {
 public:
  struct Options {
    ml::BaggingEnsemble::Options ensemble{};
    /// Train on log(time) so squared error means relative error (paper 5.2).
    bool log_targets = true;
    FeatureEncoding encoding = FeatureEncoding::kLog2;
  };

  AnnPerformanceModel() : AnnPerformanceModel(Options{}) {}
  explicit AnnPerformanceModel(Options options);

  /// Fit on (configuration, time) pairs from the given space. All samples
  /// must be valid (invalid configurations are ignored upstream, as in the
  /// paper). The first sample's instance fixes the number of problem
  /// parameters; every sample must have that many, each > 0. Throws
  /// std::invalid_argument on an empty sample set, a non-positive time or a
  /// bad instance; a fit that throws leaves the model as it was.
  void fit(const ParamSpace& space, const std::vector<TrainingSample>& samples,
           common::Rng& rng);

  [[nodiscard]] bool fitted() const noexcept { return ensemble_->fitted(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const ml::BaggingEnsemble& ensemble() const noexcept {
    return *ensemble_;
  }
  /// Problem parameters per instance (0 for a model of one instance).
  [[nodiscard]] std::size_t problem_parameters() const noexcept {
    return problem_parameters_;
  }

  /// Predicted execution time (ms) for one configuration on one instance.
  /// The instance arguments of this and the functions below throw
  /// std::invalid_argument unless they hold problem_parameters() values,
  /// each > 0.
  [[nodiscard]] double predict_ms(const Configuration& config,
                                  const ProblemInstance& instance = {}) const;

  /// Streaming top-m selection over [begin, end) on the empty instance: the
  /// m configurations with the lowest predicted time (ascending), found in
  /// O(n log m) time and O(chunks * m) memory — no full prediction vector —
  /// by the certified fp32 scan (ScanEngine::top_m), whose selection is the
  /// fp64 reference's. The optional filter (e.g. the clstat pre-filter;
  /// must be thread-safe) is applied during the scan, lazily, and the
  /// selection holds only configurations it passes; a caller that also
  /// wants the unfiltered ranking scans again without it.
  [[nodiscard]] TopMScanResult predict_scan_top_m(
      std::uint64_t begin, std::uint64_t end, std::size_t m,
      const ScanFilter& filter = {}) const;

  /// The scan engine of one instance, behind predict_scan_top_m; its
  /// reference_range is the dense fp64 bulk path. The first call after
  /// fit/restore packs the fp32 engine; later calls for the same instance
  /// share it. The instance's features enter the certification box as
  /// degenerate [v, v] tail ranges, so an engine for another instance
  /// repacks. Throws std::logic_error before fit.
  [[nodiscard]] ScanEngine scan_engine(
      const ProblemInstance& instance = {}) const;

  /// Predicted times for an explicit list of configurations on one
  /// instance.
  [[nodiscard]] std::vector<double> predict_many_ms(
      const std::vector<Configuration>& configs,
      const ProblemInstance& instance = {}) const;

  /// The feature vector used for a configuration on an instance: the
  /// configuration's features, then log2 of each problem parameter
  /// (exposed for tests).
  [[nodiscard]] std::vector<double> encode_features(
      const Configuration& config, const ProblemInstance& instance = {}) const;

  /// The space the model was fitted on (empty before fit).
  [[nodiscard]] const ParamSpace& space() const noexcept { return space_; }
  /// Target standardization parameters (see persist.hpp).
  [[nodiscard]] double target_mean() const noexcept { return output_.mean; }
  [[nodiscard]] double target_scale() const noexcept { return output_.scale; }

  /// Rebuild a fitted model without problem parameters from persisted
  /// state (see tuner/persist.hpp). Throws std::invalid_argument on an
  /// unfitted ensemble, a width that does not match the space, a non-finite
  /// target mean, or a target scale that is not finite and > 0 (fit never
  /// produces one, and the scans need scale > 0).
  [[nodiscard]] static AnnPerformanceModel restore(Options options,
                                                   ParamSpace space,
                                                   double target_mean,
                                                   double target_scale,
                                                   ml::BaggingEnsemble ensemble);

 private:
  Options options_;
  ParamSpace space_;
  FeatureCodec codec_;
  RangeEncoder range_encoder_;
  std::size_t problem_parameters_ = 0;
  // Targets are standardized (zero mean, unit variance, after the optional
  // log transform) before training: the network then starts near the right
  // output scale and Rprop converges in far fewer epochs. This maps a
  // network output back to a predicted time, in every predict and scan.
  OutputTransform output_;
  // Shared with the scan engines built from it, which must stay valid after
  // the model is moved or refitted; fit/restore replace it, never mutate it.
  std::shared_ptr<const ml::BaggingEnsemble> ensemble_;
  // The packed fp32 engine, built on the first scan and dropped whenever
  // the ensemble changes (fit/restore). Copying the model resets it; moving
  // transfers it.
  ml::BatchedEnsembleCache batched_;
};

}  // namespace pt::tuner
