#include "tuner/robust.hpp"

#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "common/telemetry/telemetry.hpp"

namespace pt::tuner {

common::Rng attempt_stream(std::uint64_t seed, std::uint64_t config_index,
                           std::uint64_t attempt) noexcept {
  // Three dependent splitmix64 steps: each argument perturbs the state
  // before the next stretch, so (seed, index, attempt) triples that differ
  // in any coordinate yield unrelated streams.
  std::uint64_t state = seed ^ 0xa0761d6478bd642fULL;
  state = common::splitmix64(state) ^ config_index;
  state = common::splitmix64(state) ^ attempt;
  return common::Rng(common::splitmix64(state));
}

// --- NoisyEvaluator ---

NoisyEvaluator::NoisyEvaluator(Evaluator& inner, Options options)
    : inner_(inner), options_(options) {
  if (options_.sigma < 0.0)
    throw std::invalid_argument("NoisyEvaluator: negative sigma");
}

Measurement NoisyEvaluator::measure(const Configuration& config) {
  const std::uint64_t index = inner_.space().encode(config);
  const std::uint64_t attempt = attempts_[index]++;
  Measurement m = inner_.measure(config);
  if (!m.valid || options_.sigma == 0.0) return m;
  common::Rng rng = attempt_stream(options_.seed, index, attempt);
  const double noisy = m.time_ms * rng.lognormal(0.0, options_.sigma);
  // The run really took the noisy time, so the cost moves with it.
  m.cost_ms += noisy - m.time_ms;
  m.time_ms = noisy;
  return m;
}

// --- FaultInjectingEvaluator ---

FaultInjectingEvaluator::FaultInjectingEvaluator(Evaluator& inner,
                                                 Options options)
    : inner_(inner), options_(options) {
  for (const double rate :
       {options_.transient_rate, options_.spurious_rate, options_.outlier_rate})
    if (rate < 0.0 || rate > 1.0)
      throw std::invalid_argument("FaultInjectingEvaluator: rate outside [0,1]");
  if (options_.outlier_factor <= 0.0)
    throw std::invalid_argument(
        "FaultInjectingEvaluator: non-positive outlier factor");
}

Measurement FaultInjectingEvaluator::measure(const Configuration& config) {
  const std::uint64_t index = inner_.space().encode(config);
  const std::uint64_t attempt = attempts_[index]++;
  common::Rng rng = attempt_stream(options_.seed, index, attempt);
  // Draw all three faults up front so each class consumes a fixed number of
  // stream values regardless of which (if any) fires.
  const bool transient = rng.bernoulli(options_.transient_rate);
  const bool spurious = rng.bernoulli(options_.spurious_rate);
  const bool outlier = rng.bernoulli(options_.outlier_rate);

  if (transient) {
    // The launch fails before the kernel runs; the real evaluator is never
    // consulted, but the failed round-trip still wastes time.
    ++transient_;
    common::telemetry::count("evaluator.fault.transient_injected");
    Measurement m;
    m.valid = false;
    m.status = clsim::Status::kOutOfResources;
    m.transient = true;
    m.cost_ms = options_.fault_cost_ms;
    return m;
  }

  Measurement m = inner_.measure(config);
  if (!m.valid) return m;  // genuinely invalid: pass the real verdict through

  if (spurious) {
    // The run completed but the driver misreports it as rejected, with a
    // permanent-looking status retry cannot fix.
    ++spurious_;
    common::telemetry::count("evaluator.fault.spurious_injected");
    m.valid = false;
    m.status = clsim::Status::kInvalidWorkGroupSize;
    m.time_ms = 0.0;
    return m;
  }
  if (outlier) {
    ++outliers_;
    common::telemetry::count("evaluator.fault.outlier_injected");
    m.cost_ms += m.time_ms * (options_.outlier_factor - 1.0);
    m.time_ms *= options_.outlier_factor;
  }
  return m;
}

// --- RobustEvaluator ---

RobustEvaluator::RobustEvaluator(Evaluator& inner, Options options)
    : inner_(inner), options_(options) {
  if (options_.repeats == 0)
    throw std::invalid_argument("RobustEvaluator: zero repeats");
  if (options_.trim_fraction < 0.0 || options_.trim_fraction >= 0.5)
    throw std::invalid_argument(
        "RobustEvaluator: trim fraction outside [0, 0.5)");
  if (options_.backoff_ms < 0.0)
    throw std::invalid_argument("RobustEvaluator: negative backoff");
}

double RobustEvaluator::aggregate(const std::vector<double>& times) const {
  switch (options_.aggregation) {
    case Aggregation::kMedian:
      return common::median(times);
    case Aggregation::kTrimmedMean:
      return common::trimmed_mean(times, options_.trim_fraction);
  }
  return common::median(times);  // unreachable
}

Measurement RobustEvaluator::measure(const Configuration& config) {
  Measurement out;
  out.attempts = 0;
  std::vector<double> times;
  times.reserve(options_.repeats);
  clsim::Status last_transient = clsim::Status::kSuccess;

  for (std::size_t repeat = 0; repeat < options_.repeats; ++repeat) {
    bool repeat_succeeded = false;
    for (std::size_t try_no = 0; try_no <= options_.max_retries; ++try_no) {
      const Measurement m = inner_.measure(config);
      ++out.attempts;
      ++total_attempts_;
      common::telemetry::count("evaluator.robust.attempts");
      out.cost_ms += m.cost_ms;
      if (m.valid) {
        times.push_back(m.time_ms);
        repeat_succeeded = true;
        break;
      }
      if (!m.transient) {
        // Permanent rejection: the configuration itself is invalid (or the
        // driver insists it is); repeating cannot change the verdict.
        out.valid = false;
        out.status = m.status;
        return out;
      }
      ++out.transient_faults;
      ++transient_failures_;
      common::telemetry::count("evaluator.robust.transient_failures");
      last_transient = m.status;
      if (try_no < options_.max_retries) {
        // Simulated exponential backoff before the retry.
        out.cost_ms +=
            options_.backoff_ms * static_cast<double>(1ULL << try_no);
        ++retries_;
        common::telemetry::count("evaluator.robust.retries");
      }
    }
    if (!repeat_succeeded) {
      // Retry budget exhausted on transient failures: stop burning attempts.
      ++exhausted_;
      common::telemetry::count("evaluator.robust.exhausted");
      break;
    }
  }

  if (times.empty()) {
    out.valid = false;
    out.status = last_transient;
    out.transient = true;
    return out;
  }
  out.valid = true;
  out.status = clsim::Status::kSuccess;
  out.time_ms = aggregate(times);
  return out;
}

}  // namespace pt::tuner
