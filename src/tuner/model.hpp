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

/// One labelled observation for model fitting.
struct TrainingSample {
  Configuration config;
  double time_ms = 0.0;
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
  /// paper). Throws std::invalid_argument on an empty sample set.
  void fit(const ParamSpace& space, const std::vector<TrainingSample>& samples,
           common::Rng& rng);

  [[nodiscard]] bool fitted() const noexcept { return ensemble_->fitted(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const ml::BaggingEnsemble& ensemble() const noexcept {
    return *ensemble_;
  }

  /// Predicted execution time (ms) for one configuration.
  [[nodiscard]] double predict_ms(const Configuration& config) const;

  /// Predicted times for a contiguous flat-index range [begin, end) of the
  /// space — the dense bulk path, through the fp64 reference
  /// (ScanEngine::reference_range). Chunks of scan_chunk_rows(end - begin)
  /// rows are dispatched on the global thread pool; results are
  /// bit-identical for every pool size.
  [[nodiscard]] std::vector<double> predict_range_ms(std::uint64_t begin,
                                                     std::uint64_t end) const;

  /// Streaming top-m selection over [begin, end): the m configurations with
  /// the lowest predicted time (ascending), found in O(n log m) time and
  /// O(chunks * m) memory — no full prediction vector — by the certified
  /// fp32 scan (ScanEngine::top_m), whose selection is the fp64
  /// reference's. The optional filter (e.g. the clstat pre-filter; must be
  /// thread-safe) is applied during the scan, lazily, and the selection
  /// holds only configurations it passes; a caller that also wants the
  /// unfiltered ranking scans again without it.
  [[nodiscard]] TopMScanResult predict_scan_top_m(
      std::uint64_t begin, std::uint64_t end, std::size_t m,
      const ScanFilter& filter = {}) const;

  /// The scan engine behind predict_range_ms and predict_scan_top_m. The
  /// first call after fit/restore packs the fp32 engine; later calls share
  /// it. Throws std::logic_error before fit.
  [[nodiscard]] ScanEngine scan_engine() const;

  /// Predicted times for an explicit list of configurations.
  [[nodiscard]] std::vector<double> predict_many_ms(
      const std::vector<Configuration>& configs) const;

  /// The feature vector used for a configuration (exposed for tests).
  [[nodiscard]] std::vector<double> encode_features(
      const Configuration& config) const;

  /// The space the model was fitted on (empty before fit).
  [[nodiscard]] const ParamSpace& space() const noexcept { return space_; }
  /// Target standardization parameters (see persist.hpp).
  [[nodiscard]] double target_mean() const noexcept { return output_.mean; }
  [[nodiscard]] double target_scale() const noexcept { return output_.scale; }

  /// Rebuild a fitted model from persisted state (see tuner/persist.hpp).
  /// Throws std::invalid_argument on an unfitted ensemble, a width that
  /// does not match the space, a non-finite target mean, or a target scale
  /// that is not finite and > 0 (fit never produces one, and the scans
  /// need scale > 0).
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
