#pragma once

// Measurement-robustness layer: evaluator decorators that (a) make the
// simulated runtime *messier* — multiplicative log-normal timing noise,
// injected transient launch failures, spurious-invalid verdicts and timing
// outliers — and (b) make the tuner's measurement path *robust* to exactly
// that mess by repeating measurements with robust aggregation and bounded
// retry-with-backoff. Real auto-tuners harden this way (CLTune averages
// multiple runs per configuration; stencil workgroup autotuners must survive
// illegal workgroup sizes at every step); the paper's tuner only ever sees
// one clean measurement per configuration.
//
// Determinism contract: every injected fault and noise draw comes from an
// RNG stream forked per (seed, configuration index, attempt number) — never
// from a shared sequential generator — so a fault schedule is a pure
// function of *which* configuration is measured for the *n-th* time, not of
// global call order or thread count. Two runs with the same seed see
// bit-identical schedules even if the surrounding tuner interleaves
// measurements differently.
//
// The intended decorator stack (outermost first):
//
//   CachingEvaluator -> RobustEvaluator -> FaultInjecting/Noisy -> real
//
// so the cache pins the first *aggregated* result, the robust layer pays
// for repeats/retries in cost_ms, and the injectors corrupt only raw
// attempts.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "tuner/evaluator.hpp"

namespace pt::tuner {

/// Independent RNG stream for the `attempt`-th measurement of the
/// configuration at `config_index` under `seed`. Pure function of its
/// arguments (splitmix64 mixing), so schedules cannot depend on call order.
[[nodiscard]] common::Rng attempt_stream(std::uint64_t seed,
                                         std::uint64_t config_index,
                                         std::uint64_t attempt) noexcept;

/// Multiplicative log-normal measurement noise: a valid measurement's time
/// becomes time * exp(N(0, sigma)). Repeated measurements of the same
/// configuration draw fresh (but reproducible) factors, so averaging over
/// repeats actually converges.
class NoisyEvaluator final : public Evaluator {
 public:
  struct Options {
    double sigma = 0.1;      // log-normal sigma; 0 disables the decorator
    std::uint64_t seed = 1;  // stream seed (independent of the tuner's RNG)
  };

  NoisyEvaluator(Evaluator& inner, Options options);

  [[nodiscard]] const ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Measurement measure(const Configuration& config) override;

  [[nodiscard]] Evaluator* inner() noexcept override { return &inner_; }

 private:
  Evaluator& inner_;
  Options options_;
  /// Times each configuration has been measured, keyed by flat index —
  /// the attempt counter behind the per-(config, attempt) streams.
  std::unordered_map<std::uint64_t, std::uint64_t> attempts_;
};

/// Deterministic fault injector. Three independent fault classes, each an
/// i.i.d. per-attempt Bernoulli draw from the (config, attempt) stream:
///
///  - transient launch failure: the launch "fails" before the kernel runs —
///    reported invalid with CL_OUT_OF_RESOURCES, marked
///    Measurement::transient (the mark, not the status, makes it
///    retryable: the driver returns the same status for a group that
///    overflows the register file), and a small wasted cost; the
///    configuration itself is fine.
///  - spurious-invalid verdict: the measurement completes but is reported
///    invalid with CL_INVALID_WORK_GROUP_SIZE and no mark — it looks
///    permanent, so retry cannot help. (This fault class reproduces the
///    paper's all-second-stage-invalid failure on demand.)
///  - timing outlier: the measured time is multiplied by outlier_factor
///    (a straggler/contended run); robust aggregation should reject it.
class FaultInjectingEvaluator final : public Evaluator {
 public:
  struct Options {
    double transient_rate = 0.0;   // P(transient launch failure) per attempt
    double spurious_rate = 0.0;    // P(spurious-invalid verdict) per attempt
    double outlier_rate = 0.0;     // P(timing outlier) per attempt
    double outlier_factor = 10.0;  // multiplier applied to outlier times
    double fault_cost_ms = 0.5;    // wasted cost of a failed launch attempt
    std::uint64_t seed = 1;
  };

  FaultInjectingEvaluator(Evaluator& inner, Options options);

  [[nodiscard]] const ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Measurement measure(const Configuration& config) override;

  [[nodiscard]] Evaluator* inner() noexcept override { return &inner_; }

  [[nodiscard]] std::size_t transient_injected() const noexcept {
    return transient_;
  }
  [[nodiscard]] std::size_t spurious_injected() const noexcept {
    return spurious_;
  }
  [[nodiscard]] std::size_t outliers_injected() const noexcept {
    return outliers_;
  }

 private:
  Evaluator& inner_;
  Options options_;
  std::unordered_map<std::uint64_t, std::uint64_t> attempts_;
  std::size_t transient_ = 0;
  std::size_t spurious_ = 0;
  std::size_t outliers_ = 0;
};

/// Robust measurement: repeat the inner measurement and aggregate with a
/// robust statistic; retry transient failures with (simulated) exponential
/// backoff. Every repeat, retry and backoff wait is charged to cost_ms —
/// robustness is not free, and the tuner's cost accounting must say so.
///
/// Outcome policy per measure() call:
///  - a *permanent* rejection (an invalid measurement without the
///    Measurement::transient mark) on any attempt ends the call
///    immediately: the configuration is reported invalid with that status
///    (repeating cannot un-reject it);
///  - a repeat whose retries are exhausted by transient failures ends the
///    call: if earlier repeats succeeded their aggregate is returned,
///    otherwise the last transient failure's status is reported, still
///    marked transient (retry exhaustion);
///  - otherwise `repeats` successful times are aggregated.
/// The returned Measurement carries attempts/transient_faults so tuners can
/// report fault counters without knowing the decorator is there.
class RobustEvaluator final : public Evaluator {
 public:
  enum class Aggregation { kMedian, kTrimmedMean };

  struct Options {
    std::size_t repeats = 3;  // successful measurements to aggregate
    Aggregation aggregation = Aggregation::kMedian;
    double trim_fraction = 0.2;    // per-side, for kTrimmedMean
    std::size_t max_retries = 3;   // extra attempts per repeat on transients
    double backoff_ms = 1.0;       // simulated wait before retry k: 2^k * this
  };

  RobustEvaluator(Evaluator& inner, Options options);

  [[nodiscard]] const ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Measurement measure(const Configuration& config) override;

  [[nodiscard]] Evaluator* inner() noexcept override { return &inner_; }

  /// Raw inner measurements across all measure() calls.
  [[nodiscard]] std::size_t total_attempts() const noexcept {
    return total_attempts_;
  }
  /// Transient failures seen (recovered or not).
  [[nodiscard]] std::size_t transient_failures() const noexcept {
    return transient_failures_;
  }
  /// Backoff retries actually taken.
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }
  /// measure() calls that ended in retry exhaustion.
  [[nodiscard]] std::size_t exhausted() const noexcept { return exhausted_; }

 private:
  [[nodiscard]] double aggregate(const std::vector<double>& times) const;

  Evaluator& inner_;
  Options options_;
  std::size_t total_attempts_ = 0;
  std::size_t transient_failures_ = 0;
  std::size_t retries_ = 0;
  std::size_t exhausted_ = 0;
};

}  // namespace pt::tuner
