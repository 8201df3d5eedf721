#include "tuner/iterative.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/run_hooks.hpp"

namespace pt::tuner {

namespace tel = common::telemetry;

IterativeTuner::IterativeTuner(IterativeTunerOptions options)
    : options_(std::move(options)) {
  if (options_.measurement_budget == 0)
    throw std::invalid_argument("IterativeTuner: zero budget");
  if (options_.initial_samples == 0)
    throw std::invalid_argument("IterativeTuner: zero initial sample");
  if (options_.batch_size == 0)
    throw std::invalid_argument("IterativeTuner: zero batch size");
  if (options_.exploration_fraction < 0.0 ||
      options_.exploration_fraction > 1.0)
    throw std::invalid_argument("IterativeTuner: bad exploration fraction");
}

IterativeTuneResult IterativeTuner::tune(Evaluator& evaluator,
                                         const TuneRun& request) const {
  common::Rng seeded(request.seed);
  common::Rng& rng = request.rng != nullptr ? *request.rng : seeded;
  TunerObserver* const observer = request.observer;
  const tel::ScopedCollector install(
      request.telemetry != nullptr ? request.telemetry : tel::collector());
  StageScope whole(observer, "iterative", "iterative.tune");

  const ParamSpace& space = evaluator.space();
  IterativeTuneResult result;
  const CacheSnapshot cache(evaluator);
  // clstat pre-filter tallies (bumped by scan workers during exploit scans).
  StaticPruneCounters static_counters;

  std::vector<TrainingSample> data;
  std::unordered_set<std::uint64_t> measured;
  bool have_best = false;
  Configuration best_config;
  double best_time = 0.0;

  // What measure_index reports to the observer; updated as the tuner moves
  // between sampling modes.
  std::string_view measure_stage = "round0";

  auto measure_index = [&](std::uint64_t index) {
    if (!measured.insert(index).second) return;
    if (result.measurements >= options_.measurement_budget) return;
    const Configuration config = space.decode(index);
    const Measurement m = evaluator.measure(config);
    ++result.measurements;
    result.data_gathering_cost_ms += m.cost_ms;
    result.measure_attempts += m.attempts;
    result.transient_faults += m.transient_faults;
    if (observer != nullptr) {
      observer->on_measurement(measure_stage, config, m);
      observer->on_sample(measure_stage, config, m);
    }
    if (!m.valid) {
      ++result.invalid_measurements;
      result.rejections.note(m.status);
      return;
    }
    data.push_back({config, m.time_ms});
    if (!have_best || m.time_ms < best_time) {
      have_best = true;
      best_time = m.time_ms;
      best_config = config;
    }
  };

  // Round 0: random seed sample.
  {
    StageScope stage(observer, "iterative", "iterative.round0");
    const std::size_t n = std::min(options_.initial_samples,
                                   options_.measurement_budget);
    for (const std::size_t index : rng.sample_without_replacement(
             static_cast<std::size_t>(space.size()),
             static_cast<std::size_t>(
                 std::min<std::uint64_t>(n, space.size())))) {
      measure_index(index);
    }
    ++result.rounds;
    result.incumbent_trace.push_back(have_best ? best_time : 0.0);
  }

  // The measured-set guard matters when the budget exceeds the space: once
  // every configuration is measured no round can add data, and waiting for
  // the budget to fill would loop forever.
  while (result.measurements < options_.measurement_budget && !data.empty() &&
         measured.size() < space.size()) {
    StageScope round_stage(observer, "iterative", "iterative.round");

    // Train on everything measured so far.
    AnnPerformanceModel model(options_.model);
    {
      StageScope stage(observer, "iterative", "iterative.model.fit");
      model.fit(space, data, rng);
    }
    replay_epochs(observer, model.ensemble());

    // Exploitation: best predictions not yet measured.
    const std::size_t batch =
        std::min(options_.batch_size,
                 options_.measurement_budget - result.measurements);
    const auto explore = static_cast<std::size_t>(
        static_cast<double>(batch) * options_.exploration_fraction + 0.5);
    const std::size_t exploit = batch - explore;

    if (exploit > 0) {
      // Streaming top-m scan with a "not yet measured" filter: no full
      // prediction vector, and the selection is exactly the exploit best
      // unmeasured configurations.
      StageScope stage(observer, "iterative", "iterative.exploit");
      measure_stage = "exploit";
      ScanFilter filter = [&measured](std::uint64_t index) {
        return measured.count(index) == 0;
      };
      if (options_.static_checker != nullptr) {
        // The static check first, so its tallies count every row the scan
        // asks about, measured or not.
        filter = [proved = make_static_scan_filter(
                      space, *options_.static_checker, static_counters),
                  unmeasured = std::move(filter)](std::uint64_t index) {
          return proved(index) && unmeasured(index);
        };
      }
      const auto scan =
          model.predict_scan_top_m(0, space.size(), exploit, filter);
      for (const auto& candidate : scan.top) {
        if (observer != nullptr)
          observer->on_candidate(candidate.index, candidate.predicted_ms);
        measure_index(candidate.index);
      }
    }
    // Exploration: fresh random configurations.
    {
      StageScope stage(observer, "iterative", "iterative.explore");
      measure_stage = "explore";
      for (std::size_t e = 0; e < explore; ++e) {
        measure_index(rng.below(space.size()));
      }
    }

    ++result.rounds;
    result.incumbent_trace.push_back(have_best ? best_time : 0.0);
    common::log_info("iterative[", evaluator.name(), "]: round ",
                     result.rounds, " best=", have_best ? best_time : -1.0,
                     " measured=", result.measurements);
  }

  if (!data.empty()) {
    StageScope stage(observer, "iterative", "iterative.model.fit");
    AnnPerformanceModel model(options_.model);
    model.fit(space, data, rng);
    stage.finish();
    replay_epochs(observer, model.ensemble());
    result.model = std::move(model);
  }
  result.success = have_best;
  if (have_best) {
    result.best_config = std::move(best_config);
    result.best_time_ms = best_time;
  } else {
    common::log_warn("iterative[", evaluator.name(),
                     "]: no valid configuration in ", result.measurements,
                     " measurements (", result.rejections.to_string(),
                     "); no prediction");
  }

  cache.report("iterative", evaluator, result);
  if (options_.static_checker != nullptr)
    report_static_prune("iterative", evaluator, static_counters, result);
  if (tel::enabled()) {
    tel::count("tuner.iterative.measurements",
               static_cast<double>(result.measurements));
    tel::count("tuner.iterative.invalid",
               static_cast<double>(result.invalid_measurements));
    tel::count("tuner.iterative.rounds",
               static_cast<double>(result.rounds));
    tel::count("tuner.measure.attempts",
               static_cast<double>(result.measure_attempts));
    tel::count("tuner.measure.transient_faults",
               static_cast<double>(result.transient_faults));
    tel::gauge("tuner.data_gathering_cost_ms", result.data_gathering_cost_ms);
    count_rejections(result.rejections);
  }
  return result;
}

}  // namespace pt::tuner
