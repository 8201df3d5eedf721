#pragma once

// TunerObserver — the hook surface of the tuning stack (DESIGN.md §7).
//
// A tune() call takes its observer and telemetry collector from its TuneRun
// (tuner/options.hpp). Callers that only want a result leave both unset;
// with them set, results stay bit-identical at any thread count (verified
// by tests/tuner/test_observer.cpp).
//
// Observer callbacks are delivered on the calling thread, in a
// deterministic order for a fixed seed (concurrent work such as ensemble
// training replays its per-member epochs sequentially after the fact).
// Observers must not mutate the evaluator or re-enter the tuner.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tuner/evaluator.hpp"

namespace pt::tuner {

/// Hook interface for watching a tuning run. All hooks default to no-ops so
/// observers override only what they need.
class TunerObserver {
 public:
  virtual ~TunerObserver() = default;

  /// A named tuner stage begins/ends. `tuner` identifies the caller
  /// ("autotuner", "iterative"); `stage` is the span name from the taxonomy
  /// in DESIGN.md §7 ("stage1.measure", "model.fit", "stage2.scan",
  /// "stage2.measure", "round", ...). Properly nested per run: every begin
  /// is closed by a matching end before the outer stage ends.
  virtual void on_stage_begin(std::string_view /*tuner*/,
                              std::string_view /*stage*/) {}
  virtual void on_stage_end(std::string_view /*tuner*/,
                            std::string_view /*stage*/) {}

  /// A measurement was taken to build the model's training set (stage-1
  /// samples, iterative round-0 / exploration draws). Fires after the
  /// corresponding on_measurement.
  virtual void on_sample(std::string_view /*stage*/,
                         const Configuration& /*config*/,
                         const Measurement& /*m*/) {}

  /// One training epoch of one ensemble member finished. Delivered in
  /// (member, epoch) order after fit() returns, so the sequence is
  /// deterministic even when members train concurrently. monitored_loss is
  /// NaN when the member trained without a monitored split.
  virtual void on_epoch(std::size_t /*member*/, std::size_t /*epoch*/,
                        double /*train_loss*/, double /*monitored_loss*/) {}

  /// A model-selected candidate (flat index + its predicted time) is about
  /// to be measured.
  virtual void on_candidate(std::uint64_t /*index*/,
                            double /*predicted_ms*/) {}

  /// Every measurement the tuner makes, model-selected or random.
  virtual void on_measurement(std::string_view /*stage*/,
                              const Configuration& /*config*/,
                              const Measurement& /*m*/) {}
};

}  // namespace pt::tuner
