#pragma once

// Iterative (active-learning) auto-tuner — an extension beyond the paper's
// one-shot two-stage design, in the spirit of the active-learning work its
// related-work section cites (Ogilvie et al.).
//
// Instead of spending the whole measurement budget on one random sample,
// the iterative tuner alternates:
//
//   round:  train the model on everything measured so far
//           -> scan predictions
//           -> measure a mixed batch: the most promising configurations
//              (exploitation) plus fresh random ones (exploration)
//
// until the measurement budget (or the space) is exhausted. All
// measurements (including earlier rounds' winners) feed the next round's
// model, so the model sharpens exactly where the tuner is searching. The
// exploration share guards against the invalid-region trap that breaks the
// one-shot tuner on stereo/GPU.

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/model.hpp"
#include "tuner/observer.hpp"
#include "tuner/options.hpp"

namespace pt::tuner {

/// The shared fields (model, static_checker) live in TunerOptions.
struct IterativeTunerOptions : TunerOptions {
  std::size_t measurement_budget = 2000;  // total configurations measured
  std::size_t initial_samples = 400;      // round-0 random sample
  std::size_t batch_size = 200;           // measurements per later round
  /// Fraction of each later batch drawn at random (exploration).
  double exploration_fraction = 0.25;
  /// Graceful degradation: when the initial sample yields no valid
  /// measurement (so there is nothing to train on), keep drawing fresh
  /// random batches until one measures valid or the budget/space runs out,
  /// instead of giving up after round 0. Off by default so results are
  /// bit-identical to the pre-degradation tuner unless a caller opts in.
  bool explore_until_valid = false;
  /// The inherited static_checker pre-filters the exploitation scan:
  /// proven-invalid configurations never enter a round's exploit batch, so
  /// their slots go to configurations that can actually measure. Unlike the
  /// one-shot tuner this *changes the measurement trajectory* (different
  /// configurations get measured, feeding different models) — sound but not
  /// bit-identical to a filter-free run. Random exploration stays
  /// unfiltered, preserving the invalid-region labels it supplies.
};

struct IterativeTuneResult {
  bool success = false;
  Configuration best_config;
  double best_time_ms = 0.0;

  std::size_t rounds = 0;
  std::size_t measurements = 0;
  std::size_t invalid_measurements = 0;
  /// Extra exploration-only rounds spent hunting for a first valid
  /// measurement (only with options.explore_until_valid).
  std::size_t resample_rounds = 0;
  /// Raw evaluator attempts behind all measurements (see tuner/robust.hpp).
  std::size_t measure_attempts = 0;
  /// Transient failures absorbed by downstream retry decorators.
  std::size_t transient_faults = 0;
  /// Why invalid measurements were rejected, by status.
  RejectionCounts rejections;
  double data_gathering_cost_ms = 0.0;
  /// Incumbent best time at the end of each round (convergence trace).
  std::vector<double> incumbent_trace;
  /// Final model, trained on every valid measurement.
  std::optional<AnnPerformanceModel> model;
  /// Cache hit/miss deltas over this run, when a CachingEvaluator is found
  /// anywhere in the evaluator stack (see find_layer); 0/0 otherwise.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// clstat pre-filter tallies over all exploit scans (all zero unless
  /// options.static_checker was set; see AutoTuneResult for semantics).
  std::size_t static_checked = 0;
  std::size_t static_pruned = 0;
  std::size_t static_proved_valid = 0;
  std::size_t static_unknown = 0;
};

class IterativeTuner {
 public:
  IterativeTuner() : IterativeTuner(IterativeTunerOptions{}) {}
  explicit IterativeTuner(IterativeTunerOptions options);

  [[nodiscard]] const IterativeTunerOptions& options() const noexcept {
    return options_;
  }

  /// Run the rounds against the evaluator as the request describes (see
  /// tuner/options.hpp). request.sampler is ignored: this tuner draws its
  /// own exploration samples.
  [[nodiscard]] IterativeTuneResult tune(Evaluator& evaluator,
                                         const TuneRun& request = {}) const;

 private:
  IterativeTunerOptions options_;
};

}  // namespace pt::tuner
