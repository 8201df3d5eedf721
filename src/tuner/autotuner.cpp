#include "tuner/autotuner.hpp"

#include <chrono>
#include <stdexcept>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/run_hooks.hpp"

namespace pt::tuner {

namespace tel = common::telemetry;

namespace {

double host_ms_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

AutoTuner::AutoTuner(AutoTunerOptions options) : options_(std::move(options)) {
  if (options_.training_samples == 0)
    throw std::invalid_argument("AutoTuner: zero training samples");
  if (options_.second_stage_size == 0)
    throw std::invalid_argument("AutoTuner: zero second-stage size");
}

AutoTuneResult AutoTuner::tune(Evaluator& evaluator,
                               const TuneRun& request) const {
  common::Rng seeded(request.seed);
  common::Rng& rng = request.rng != nullptr ? *request.rng : seeded;
  const RandomSampler default_sampler;
  const Sampler& sampler =
      request.sampler != nullptr ? *request.sampler : default_sampler;
  TunerObserver* const observer = request.observer;
  const tel::ScopedCollector install(
      request.telemetry != nullptr ? request.telemetry : tel::collector());
  StageScope whole(observer, "autotuner", "autotuner.tune");

  AutoTuneResult result;
  const ParamSpace& space = evaluator.space();
  const CacheSnapshot cache(evaluator);
  // clstat pre-filter tallies (bumped by scan workers during stage 2).
  StaticPruneCounters static_counters;

  auto finalize = [&] {
    cache.report("autotuner", evaluator, result);
    if (options_.static_checker != nullptr)
      report_static_prune("autotuner", evaluator, static_counters, result);
    if (tel::enabled()) {
      tel::count("tuner.stage1.measured",
                 static_cast<double>(result.stage1_measured));
      tel::count("tuner.stage1.valid",
                 static_cast<double>(result.stage1_valid));
      tel::count("tuner.stage2.measured",
                 static_cast<double>(result.stage2_measured));
      tel::count("tuner.stage2.invalid",
                 static_cast<double>(result.stage2_invalid));
      tel::count("tuner.measure.attempts",
                 static_cast<double>(result.measure_attempts));
      tel::count("tuner.measure.transient_faults",
                 static_cast<double>(result.transient_faults));
      tel::gauge("tuner.data_gathering_cost_ms",
                 result.data_gathering_cost_ms);
      tel::gauge("tuner.model_training_host_ms",
                 result.model_training_host_ms);
      tel::gauge("tuner.prediction_scan_host_ms",
                 result.prediction_scan_host_ms);
      count_rejections(result.stage1_rejections);
      count_rejections(result.stage2_rejections);
    }
  };

  // --- Stage 1: sample, measure, train. ---
  {
    StageScope stage(observer, "autotuner", "autotuner.stage1.measure");
    const auto samples =
        sampler.sample(space, options_.training_samples, rng);
    result.stage1_measured = samples.size();
    for (const auto& config : samples) {
      const Measurement m = evaluator.measure(config);
      result.data_gathering_cost_ms += m.cost_ms;
      result.measure_attempts += m.attempts;
      result.transient_faults += m.transient_faults;
      if (m.valid)
        result.training_data.push_back({config, m.time_ms});
      else
        result.stage1_rejections.note(m.status);
      if (observer != nullptr) {
        observer->on_measurement("stage1", config, m);
        observer->on_sample("stage1", config, m);
      }
    }
  }
  result.stage1_valid = result.training_data.size();
  common::log_info("autotuner[", evaluator.name(), "]: stage 1 measured ",
                   result.stage1_measured, " configs, ", result.stage1_valid,
                   " valid");
  if (!result.stage1_rejections.empty())
    common::log_info("autotuner[", evaluator.name(),
                     "]: stage 1 rejections: ",
                     result.stage1_rejections.to_string());
  if (result.training_data.empty()) {
    common::log_warn("autotuner[", evaluator.name(),
                     "]: no valid training data (",
                     result.stage1_rejections.to_string(),
                     "); giving no prediction");
    finalize();
    return result;  // success == false
  }

  {
    StageScope stage(observer, "autotuner", "autotuner.model.fit");
    const auto start = std::chrono::steady_clock::now();
    AnnPerformanceModel model(options_.model);
    model.fit(space, result.training_data, rng);
    result.model_training_host_ms = host_ms_since(start);
    result.model = std::move(model);
  }
  replay_epochs(observer, result.model->ensemble());

  // --- Stage 2: scan predictions, measure the M most promising. ---
  // The scan streams: a bounded top-M heap per chunk instead of a
  // full-space prediction vector, with the static pre-filter (if any)
  // applied lazily to heap-entering candidates only.
  const auto scan_start = std::chrono::steady_clock::now();
  std::vector<ScanCandidate> candidates;
  {
    StageScope stage(observer, "autotuner", "autotuner.stage2.scan");
    ScanFilter filter;
    if (options_.static_checker != nullptr)
      filter = make_static_scan_filter(space, *options_.static_checker,
                                       static_counters);
    candidates = result.model
                     ->predict_scan_top_m(0, space.size(),
                                          options_.second_stage_size, filter)
                     .top;
  }
  result.prediction_scan_host_ms = host_ms_since(scan_start);

  double best_time = 0.0;
  bool found = false;
  Configuration best_config;
  {
    StageScope stage(observer, "autotuner", "autotuner.stage2.measure");
    for (const ScanCandidate& candidate : candidates) {
      if (observer != nullptr)
        observer->on_candidate(candidate.index, candidate.predicted_ms);
      const Configuration config = space.decode(candidate.index);
      const Measurement m = evaluator.measure(config);
      result.data_gathering_cost_ms += m.cost_ms;
      result.measure_attempts += m.attempts;
      result.transient_faults += m.transient_faults;
      ++result.stage2_measured;
      if (observer != nullptr)
        observer->on_measurement("stage2", config, m);
      if (!m.valid) {
        ++result.stage2_invalid;
        result.stage2_rejections.note(m.status);
        continue;
      }
      if (!found || m.time_ms < best_time) {
        found = true;
        best_time = m.time_ms;
        best_config = config;
      }
    }
  }

  if (!found) {
    common::log_warn("autotuner[", evaluator.name(),
                     "]: all ", result.stage2_measured,
                     " second-stage configurations invalid (",
                     result.stage2_rejections.to_string(),
                     "); no prediction");
    finalize();
    return result;  // success == false, model retained for inspection
  }
  result.success = true;
  result.best_config = std::move(best_config);
  result.best_time_ms = best_time;
  common::log_info("autotuner[", evaluator.name(), "]: best ",
                   space.to_string(result.best_config), " = ",
                   result.best_time_ms, " ms");
  finalize();
  return result;
}

}  // namespace pt::tuner
