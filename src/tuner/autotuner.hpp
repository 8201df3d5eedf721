#pragma once

// The paper's two-stage auto-tuner (section 5, Figure 3):
//
//   Stage 1: measure N randomly sampled configurations; train the ANN model
//            on the valid ones (invalid configurations are ignored, but
//            their cost is still charged — failed compiles/launches waste
//            real time, section 6).
//   Stage 2: predict the time of every configuration in the space, take the
//            M with the lowest predictions, measure them, return the best.
//
// If every second-stage candidate is invalid, the tuner "gives no
// prediction" — exactly the failure mode the paper reports for stereo on
// the GPUs (section 6, Fig 14) — reported here as success == false. A
// static_checker (clstat) over a complete constraint set keeps every
// configuration it proves invalid out of stage 2, so stage 2 then measures
// only valid configurations (CLTune's declared-constraints route).

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/model.hpp"
#include "tuner/observer.hpp"
#include "tuner/options.hpp"
#include "tuner/sampler.hpp"

namespace pt::tuner {

/// The shared fields (model, static_checker) live in TunerOptions.
struct AutoTunerOptions : TunerOptions {
  std::size_t training_samples = 2000;  // N, stage-1 sample count
  std::size_t second_stage_size = 100;  // M, stage-2 candidate count
  /// The inherited static_checker skips configurations the analyzer proves
  /// invalid before they enter the stage-2 prediction scan's top-M heap.
  /// Sound pruning only removes configurations that would measure invalid,
  /// so it never changes which valid configuration wins — it just avoids
  /// wasting candidate slots and measurements on proven rejects. Over a
  /// complete constraint set (every catalog benchmark's) the verdict is
  /// exact, so no stage-2 candidate measures invalid. Without a checker the
  /// tuner runs the paper's protocol.
};

struct AutoTuneResult {
  /// False when every stage-2 candidate was invalid (no prediction).
  bool success = false;
  Configuration best_config;
  double best_time_ms = 0.0;

  // Bookkeeping.
  std::size_t stage1_measured = 0;
  std::size_t stage1_valid = 0;
  std::size_t stage2_measured = 0;
  std::size_t stage2_invalid = 0;
  /// Raw evaluator attempts behind all measurements — equals
  /// stage1_measured + stage2_measured unless a robustness decorator
  /// (tuner/robust.hpp) repeated or retried measurements downstream.
  std::size_t measure_attempts = 0;
  /// Transient failures absorbed by downstream retry decorators.
  std::size_t transient_faults = 0;
  /// Why stage-1 / stage-2 measurements were rejected, by status — keeps
  /// "all candidates invalid" diagnosable instead of a bare count.
  RejectionCounts stage1_rejections;
  RejectionCounts stage2_rejections;
  /// Simulated wall cost of all measurements (compile + run + failures).
  double data_gathering_cost_ms = 0.0;
  /// Host wall time spent training the ensemble.
  double model_training_host_ms = 0.0;
  /// Host wall time spent scanning predictions.
  double prediction_scan_host_ms = 0.0;

  /// The fitted model (valid whenever stage 1 yielded any valid sample).
  std::optional<AnnPerformanceModel> model;
  /// Stage-1 valid training data (for inspection and reuse).
  std::vector<TrainingSample> training_data;
  /// clstat static pre-filter tallies (all zero unless options.static_checker
  /// was set). Queries happen lazily at scan heap entry, below the scan's
  /// certified cutoff, so each tally is a lower bound on its verdict over
  /// the space; the verdict mix always sums to static_checked.
  std::size_t static_checked = 0;
  std::size_t static_pruned = 0;        // kProvedInvalid, skipped
  std::size_t static_proved_valid = 0;  // kProvedValid, kept
  std::size_t static_unknown = 0;       // kUnknown, kept
  /// Cache hit/miss deltas over this run, when a CachingEvaluator is found
  /// anywhere in the evaluator stack (see find_layer); 0/0 otherwise.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

class AutoTuner {
 public:
  AutoTuner() : AutoTuner(AutoTunerOptions{}) {}
  explicit AutoTuner(AutoTunerOptions options);

  [[nodiscard]] const AutoTunerOptions& options() const noexcept {
    return options_;
  }

  /// Run both stages against the evaluator as the request describes: its
  /// generator (request.rng, else one seeded with request.seed), its
  /// stage-1 sampler (default: the paper's uniform RandomSampler), its
  /// observer and telemetry collector.
  [[nodiscard]] AutoTuneResult tune(Evaluator& evaluator,
                                    const TuneRun& request = {}) const;

 private:
  AutoTunerOptions options_;
};

}  // namespace pt::tuner
