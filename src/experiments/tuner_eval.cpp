#include "experiments/tuner_eval.hpp"

#include "common/log.hpp"
#include "common/stats.hpp"
#include "tuner/search.hpp"

namespace pt::exp {

SlowdownGrid autotuner_slowdown_grid(tuner::Evaluator& evaluator,
                                     const SlowdownGridOptions& options) {
  SlowdownGrid grid;
  grid.label = evaluator.name();

  // Ground truth once; a caching wrapper is recommended upstream so the
  // tuner's own measurements reuse the sweep.
  const tuner::SearchResult truth = tuner::exhaustive_search(evaluator);
  if (!truth.success) {
    common::log_warn("slowdown grid: no valid configuration at all for ",
                     grid.label, " (", truth.rejections.to_string(), ")");
    return grid;
  }
  grid.optimum_ms = truth.best_time_ms;

  common::Rng rng(options.seed);
  for (const std::size_t n : options.training_sizes) {
    for (const std::size_t m : options.second_stage_sizes) {
      SlowdownCell cell;
      cell.training_size = n;
      cell.second_stage_size = m;
      cell.repeats = options.repeats;
      common::RunningStats stats;
      for (std::size_t r = 0; r < options.repeats; ++r) {
        tuner::AutoTunerOptions topt;
        topt.training_samples = n;
        topt.second_stage_size = m;
        topt.model = options.model;
        tuner::TuneRun request = tuner::TuneRun::with_rng(rng);
        request.telemetry = options.telemetry;
        const tuner::AutoTuneResult result =
            tuner::AutoTuner(topt).tune(evaluator, request);
        if (!result.success) continue;
        ++cell.successes;
        stats.add(result.best_time_ms / grid.optimum_ms);
      }
      if (stats.count() > 0) cell.mean_slowdown = stats.mean();
      common::log_info("slowdown grid[", grid.label, "] N=", n, " M=", m,
                       cell.mean_slowdown
                           ? " slowdown=" + std::to_string(*cell.mean_slowdown)
                           : " (missing)");
      grid.cells.push_back(cell);
    }
  }
  return grid;
}

LargeSpaceResult large_space_eval(tuner::Evaluator& evaluator,
                                  const LargeSpaceOptions& options) {
  LargeSpaceResult result;
  result.label = evaluator.name();
  result.repeats = options.repeats;

  common::Rng rng(options.seed);
  const tuner::SearchResult baseline =
      tuner::random_search(evaluator, options.random_baseline, rng);
  if (!baseline.success) {
    common::log_warn("large-space eval: random baseline found nothing for ",
                     result.label, " (", baseline.rejections.to_string(), ")");
    return result;
  }
  result.baseline_ms = baseline.best_time_ms;

  common::RunningStats stats;
  for (std::size_t r = 0; r < options.repeats; ++r) {
    tuner::AutoTunerOptions topt;
    topt.training_samples = options.training_size;
    topt.second_stage_size = options.second_stage_size;
    topt.model = options.model;
    const tuner::AutoTuneResult run =
        tuner::AutoTuner(topt).tune(evaluator, tuner::TuneRun::with_rng(rng));
    if (!run.success) {
      // The paper's stereo-on-GPU failure: say which rejections caused it.
      common::log_info("large-space eval[", result.label,
                       "]: no prediction (",
                       run.stage2_rejections.to_string(), ")");
      continue;
    }
    ++result.successes;
    stats.add(run.best_time_ms / result.baseline_ms);
  }
  if (stats.count() > 0) result.mean_slowdown = stats.mean();
  return result;
}

}  // namespace pt::exp
