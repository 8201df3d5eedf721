#pragma once

// Harnesses for the auto-tuner evaluation:
//  - Figs 11-13: grid over (N training configurations) x (M second-stage
//    configurations) of the mean slowdown of the auto-tuned configuration
//    relative to the exhaustively known global optimum (convolution).
//  - Fig 14: for spaces too large to exhaust, slowdown relative to the best
//    of 50K random configurations (raycasting, stereo).
//
// Each harness threads one Rng, seeded from its options, through all of its
// tuner runs (TuneRun::with_rng), so its repeats draw different samples.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/telemetry/telemetry.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/evaluator.hpp"

namespace pt::exp {

struct SlowdownGridOptions {
  std::vector<std::size_t> training_sizes = {100, 200, 300, 400,
                                             500, 1000, 2000};
  std::vector<std::size_t> second_stage_sizes = {10, 50, 100, 150, 200};
  std::size_t repeats = 3;  // independent tuner runs per cell
  tuner::AnnPerformanceModel::Options model{};
  std::uint64_t seed = 7;  // of the one Rng every tuner run draws from
  /// Telemetry collector installed for every tuner run (nullptr = none).
  common::telemetry::Collector* telemetry = nullptr;
};

struct SlowdownCell {
  std::size_t training_size = 0;
  std::size_t second_stage_size = 0;
  /// Mean over the repeats that produced a prediction; empty cell (paper:
  /// "results missing due to invalid configurations") when none did.
  std::optional<double> mean_slowdown;
  std::size_t successes = 0;
  std::size_t repeats = 0;
};

struct SlowdownGrid {
  std::string label;
  double optimum_ms = 0.0;  // ground-truth best
  std::vector<SlowdownCell> cells;
};

/// Figs 11-13: requires an exhaustible space; the optimum is found once by
/// exhaustive search and every tuner result is compared against it.
[[nodiscard]] SlowdownGrid autotuner_slowdown_grid(
    tuner::Evaluator& evaluator, const SlowdownGridOptions& options);

struct LargeSpaceOptions {
  std::size_t random_baseline = 50000;  // paper's 50K random configurations
  std::size_t training_size = 3000;     // N
  std::size_t second_stage_size = 300;  // M
  std::size_t repeats = 3;
  tuner::AnnPerformanceModel::Options model{};
  std::uint64_t seed = 9;
};

struct LargeSpaceResult {
  std::string label;
  double baseline_ms = 0.0;  // best of the random baseline
  /// Mean slowdown of the tuner vs the baseline (can be < 1: the tuner may
  /// beat the random baseline, as the paper observes). Empty when every
  /// repeat gave no prediction (paper: stereo on the GPUs).
  std::optional<double> mean_slowdown;
  std::size_t successes = 0;
  std::size_t repeats = 0;
};

/// Fig 14 protocol for one evaluator.
[[nodiscard]] LargeSpaceResult large_space_eval(
    tuner::Evaluator& evaluator, const LargeSpaceOptions& options);

}  // namespace pt::exp
