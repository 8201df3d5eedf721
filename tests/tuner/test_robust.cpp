#include "tuner/robust.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/thread_pool.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;
using testing::TrapEvaluator;

// --- attempt_stream: the determinism contract itself ---

TEST(AttemptStream, PureFunctionOfItsArguments) {
  common::Rng a = attempt_stream(42, 7, 3);
  common::Rng b = attempt_stream(42, 7, 3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
}

TEST(AttemptStream, AnyCoordinateChangesTheStream) {
  const std::uint64_t base = attempt_stream(42, 7, 3)();
  EXPECT_NE(base, attempt_stream(43, 7, 3)());
  EXPECT_NE(base, attempt_stream(42, 8, 3)());
  EXPECT_NE(base, attempt_stream(42, 7, 4)());
}

TEST(TransientStatus, OnlyOutOfResourcesIsTransient) {
  EXPECT_TRUE(is_transient_status(clsim::Status::kOutOfResources));
  EXPECT_FALSE(is_transient_status(clsim::Status::kInvalidWorkGroupSize));
  EXPECT_FALSE(is_transient_status(clsim::Status::kOutOfLocalMemory));
  EXPECT_FALSE(is_transient_status(clsim::Status::kSuccess));
}

// --- NoisyEvaluator ---

TEST(NoisyEvaluator, SameSeedSameNoise) {
  BowlEvaluator inner1;
  BowlEvaluator inner2;
  NoisyEvaluator n1(inner1, {.sigma = 0.2, .seed = 9});
  NoisyEvaluator n2(inner2, {.sigma = 0.2, .seed = 9});
  const ParamSpace& space = inner1.space();
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Configuration c = space.decode(i * 7 % space.size());
    const Measurement m1 = n1.measure(c);
    const Measurement m2 = n2.measure(c);
    EXPECT_EQ(m1.time_ms, m2.time_ms);  // bit-exact, not just close
    EXPECT_EQ(m1.cost_ms, m2.cost_ms);
  }
}

TEST(NoisyEvaluator, DifferentSeedDifferentNoise) {
  BowlEvaluator inner1;
  BowlEvaluator inner2;
  NoisyEvaluator n1(inner1, {.sigma = 0.2, .seed = 1});
  NoisyEvaluator n2(inner2, {.sigma = 0.2, .seed = 2});
  const Configuration c = BowlEvaluator::optimum();
  EXPECT_NE(n1.measure(c).time_ms, n2.measure(c).time_ms);
}

TEST(NoisyEvaluator, RepeatsDrawFreshButReproducibleFactors) {
  BowlEvaluator inner;
  NoisyEvaluator noisy(inner, {.sigma = 0.3, .seed = 5});
  const Configuration c = BowlEvaluator::optimum();
  const double first = noisy.measure(c).time_ms;
  const double second = noisy.measure(c).time_ms;
  EXPECT_NE(first, second);  // attempt counter advanced the stream

  BowlEvaluator inner2;
  NoisyEvaluator replay(inner2, {.sigma = 0.3, .seed = 5});
  EXPECT_EQ(replay.measure(c).time_ms, first);
  EXPECT_EQ(replay.measure(c).time_ms, second);
}

TEST(NoisyEvaluator, ZeroSigmaIsTransparent) {
  BowlEvaluator inner;
  BowlEvaluator reference;
  NoisyEvaluator noisy(inner, {.sigma = 0.0, .seed = 1});
  const Configuration c{{4, 32, 1}};
  const Measurement m = noisy.measure(c);
  const Measurement r = reference.measure(c);
  EXPECT_EQ(m.time_ms, r.time_ms);
  EXPECT_EQ(m.cost_ms, r.cost_ms);
}

TEST(NoisyEvaluator, InvalidPassesThroughUntouched) {
  BowlEvaluator inner(/*with_invalid=*/true);
  NoisyEvaluator noisy(inner, {.sigma = 0.5, .seed = 1});
  const Measurement m = noisy.measure(Configuration{{128, 1, 0}});
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kInvalidWorkGroupSize);
}

TEST(NoisyEvaluator, RejectsNegativeSigma) {
  BowlEvaluator inner;
  EXPECT_THROW(NoisyEvaluator(inner, {.sigma = -0.1, .seed = 1}),
               std::invalid_argument);
}

// --- FaultInjectingEvaluator ---

/// Key for "the n-th measurement of configuration i".
using AttemptKey = std::pair<std::uint64_t, std::uint64_t>;

std::map<AttemptKey, Measurement> measure_in_order(
    FaultInjectingEvaluator& eval, const std::vector<std::uint64_t>& order) {
  std::map<AttemptKey, Measurement> out;
  std::map<std::uint64_t, std::uint64_t> seen;
  for (const std::uint64_t index : order) {
    const std::uint64_t occurrence = seen[index]++;
    out[{index, occurrence}] = eval.measure(eval.space().decode(index));
  }
  return out;
}

TEST(FaultInjectingEvaluator, ScheduleIndependentOfCallOrder) {
  BowlEvaluator inner1;
  BowlEvaluator inner2;
  const FaultInjectingEvaluator::Options opts{.transient_rate = 0.3,
                                              .spurious_rate = 0.2,
                                              .outlier_rate = 0.2,
                                              .outlier_factor = 10.0,
                                              .fault_cost_ms = 0.5,
                                              .seed = 77};
  FaultInjectingEvaluator f1(inner1, opts);
  FaultInjectingEvaluator f2(inner2, opts);
  // Same multiset of (config, occurrence) pairs, wildly different order.
  const auto a = measure_in_order(f1, {3, 3, 7, 42, 7, 3, 42, 99});
  const auto b = measure_in_order(f2, {99, 42, 7, 3, 42, 3, 7, 3});
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, ma] : a) {
    const Measurement& mb = b.at(key);
    EXPECT_EQ(ma.valid, mb.valid);
    EXPECT_EQ(ma.status, mb.status);
    EXPECT_EQ(ma.time_ms, mb.time_ms);
    EXPECT_EQ(ma.cost_ms, mb.cost_ms);
  }
}

TEST(FaultInjectingEvaluator, TransientFailureSkipsTheRealEvaluator) {
  BowlEvaluator inner;
  FaultInjectingEvaluator faults(
      inner, {.transient_rate = 1.0, .fault_cost_ms = 0.25, .seed = 1});
  const Measurement m = faults.measure(BowlEvaluator::optimum());
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kOutOfResources);
  EXPECT_DOUBLE_EQ(m.cost_ms, 0.25);
  EXPECT_EQ(inner.calls(), 0u);  // launch failed before the kernel ran
  EXPECT_EQ(faults.transient_injected(), 1u);
}

TEST(FaultInjectingEvaluator, SpuriousVerdictLooksPermanent) {
  BowlEvaluator inner;
  FaultInjectingEvaluator faults(inner, {.spurious_rate = 1.0, .seed = 1});
  const Measurement m = faults.measure(BowlEvaluator::optimum());
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kInvalidWorkGroupSize);
  EXPECT_FALSE(is_transient_status(m.status));
  EXPECT_EQ(inner.calls(), 1u);  // the run did happen, the verdict lies
  EXPECT_EQ(faults.spurious_injected(), 1u);
}

TEST(FaultInjectingEvaluator, OutlierScalesTimeAndCost) {
  BowlEvaluator inner;
  BowlEvaluator reference;
  FaultInjectingEvaluator faults(
      inner, {.outlier_rate = 1.0, .outlier_factor = 8.0, .seed = 1});
  const Configuration c = BowlEvaluator::optimum();
  const Measurement m = faults.measure(c);
  const Measurement r = reference.measure(c);
  ASSERT_TRUE(m.valid);
  EXPECT_DOUBLE_EQ(m.time_ms, r.time_ms * 8.0);
  // The extra straggler time is charged to cost as well.
  EXPECT_DOUBLE_EQ(m.cost_ms, r.cost_ms + r.time_ms * 7.0);
  EXPECT_EQ(faults.outliers_injected(), 1u);
}

TEST(FaultInjectingEvaluator, GenuineInvalidPassesThrough) {
  BowlEvaluator inner(/*with_invalid=*/true);
  FaultInjectingEvaluator faults(inner, {.spurious_rate = 1.0, .seed = 1});
  const Measurement m = faults.measure(Configuration{{128, 1, 0}});
  EXPECT_FALSE(m.valid);
  // The real rejection wins over the injected one.
  EXPECT_EQ(m.status, clsim::Status::kInvalidWorkGroupSize);
  EXPECT_EQ(faults.spurious_injected(), 0u);
}

TEST(FaultInjectingEvaluator, RejectsBadOptions) {
  BowlEvaluator inner;
  EXPECT_THROW(FaultInjectingEvaluator(inner, {.transient_rate = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjectingEvaluator(inner, {.spurious_rate = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjectingEvaluator(inner, {.outlier_factor = 0.0}),
               std::invalid_argument);
}

// --- RobustEvaluator ---

/// Inner evaluator that replays a scripted list of raw times.
class ScriptedEvaluator final : public Evaluator {
 public:
  explicit ScriptedEvaluator(std::vector<double> times)
      : space_(testing::small_space()), times_(std::move(times)) {}
  [[nodiscard]] const ParamSpace& space() const override { return space_; }
  [[nodiscard]] std::string name() const override { return "scripted"; }
  [[nodiscard]] Measurement measure(const Configuration&) override {
    Measurement m;
    m.valid = true;
    m.time_ms = times_.at(next_++);
    m.cost_ms = 1.0;
    return m;
  }

 private:
  ParamSpace space_;
  std::vector<double> times_;
  std::size_t next_ = 0;
};

/// Inner evaluator where every launch fails transiently.
class AllTransientEvaluator final : public Evaluator {
 public:
  AllTransientEvaluator() : space_(testing::small_space()) {}
  [[nodiscard]] const ParamSpace& space() const override { return space_; }
  [[nodiscard]] std::string name() const override { return "transient"; }
  [[nodiscard]] Measurement measure(const Configuration&) override {
    Measurement m;
    m.valid = false;
    m.status = clsim::Status::kOutOfResources;
    m.cost_ms = 0.25;
    return m;
  }

 private:
  ParamSpace space_;
};

TEST(RobustEvaluator, MedianAggregationMatchesHandComputedValue) {
  ScriptedEvaluator inner({5.0, 1.0, 9.0});
  RobustEvaluator robust(inner, {.repeats = 3});
  const Measurement m = robust.measure(BowlEvaluator::optimum());
  ASSERT_TRUE(m.valid);
  EXPECT_DOUBLE_EQ(m.time_ms, 5.0);  // median of {5, 1, 9}
  EXPECT_EQ(m.attempts, 3u);
  EXPECT_DOUBLE_EQ(m.cost_ms, 3.0);  // every repeat is paid for
}

TEST(RobustEvaluator, TrimmedMeanRejectsTheOutlier) {
  ScriptedEvaluator inner({10.0, 2.0, 8.0, 4.0, 100.0});
  RobustEvaluator robust(
      inner, {.repeats = 5,
              .aggregation = RobustEvaluator::Aggregation::kTrimmedMean,
              .trim_fraction = 0.2});
  const Measurement m = robust.measure(BowlEvaluator::optimum());
  ASSERT_TRUE(m.valid);
  // Sorted {2,4,8,10,100}, one value cut per side: mean(4, 8, 10).
  EXPECT_DOUBLE_EQ(m.time_ms, 22.0 / 3.0);
}

TEST(RobustEvaluator, RetryExhaustionReportsTransientStatus) {
  AllTransientEvaluator inner;
  RobustEvaluator robust(inner,
                         {.repeats = 3, .max_retries = 2, .backoff_ms = 1.0});
  const Measurement m = robust.measure(BowlEvaluator::optimum());
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kOutOfResources);
  // The first repeat burns 1 + max_retries attempts, then the call gives up
  // instead of burning the remaining repeats' budgets too.
  EXPECT_EQ(m.attempts, 3u);
  EXPECT_EQ(m.transient_faults, 3u);
  // Cost: three failed launches plus backoffs of 1ms and 2ms.
  EXPECT_DOUBLE_EQ(m.cost_ms, 3 * 0.25 + 1.0 + 2.0);
  EXPECT_EQ(robust.retries(), 2u);
  EXPECT_EQ(robust.exhausted(), 1u);
  EXPECT_EQ(robust.transient_failures(), 3u);
}

TEST(RobustEvaluator, PermanentRejectionShortCircuits) {
  BowlEvaluator inner(/*with_invalid=*/true);
  RobustEvaluator robust(inner, {.repeats = 5, .max_retries = 3});
  const Measurement m = robust.measure(Configuration{{128, 1, 0}});
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kInvalidWorkGroupSize);
  EXPECT_EQ(m.attempts, 1u);  // repeating cannot un-reject a config
  EXPECT_EQ(robust.exhausted(), 0u);
}

TEST(RobustEvaluator, RecoversFromTransientFaults) {
  BowlEvaluator inner;
  FaultInjectingEvaluator faults(inner,
                                 {.transient_rate = 0.5, .seed = 1234});
  RobustEvaluator robust(faults, {.repeats = 3, .max_retries = 8});
  const Configuration c = BowlEvaluator::optimum();
  const Measurement m = robust.measure(c);
  ASSERT_TRUE(m.valid);
  // The underlying time is noiseless, so the aggregate is exact.
  EXPECT_DOUBLE_EQ(m.time_ms, BowlEvaluator::optimum_time());
  EXPECT_GE(m.attempts, 3u);
  EXPECT_EQ(m.transient_faults, m.attempts - 3u);
  EXPECT_EQ(robust.transient_failures(), m.transient_faults);
}

TEST(RobustEvaluator, RejectsBadOptions) {
  BowlEvaluator inner;
  EXPECT_THROW(RobustEvaluator(inner, {.repeats = 0}), std::invalid_argument);
  EXPECT_THROW(RobustEvaluator(inner, {.trim_fraction = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(RobustEvaluator(inner, {.backoff_ms = -1.0}),
               std::invalid_argument);
}

// --- CachingEvaluator under a noisy inner stack (stress) ---

TEST(CachingEvaluator, PinsFirstAggregatedResultUnderNoise) {
  BowlEvaluator inner;
  NoisyEvaluator noisy(inner, {.sigma = 0.3, .seed = 11});
  RobustEvaluator robust(noisy, {.repeats = 3});
  CachingEvaluator cache(robust);
  CountingEvaluator counter(cache);

  const ParamSpace& space = inner.space();
  std::vector<Measurement> first;
  for (std::uint64_t i = 0; i < space.size(); ++i)
    first.push_back(counter.measure(space.decode(i)));
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Measurement again = counter.measure(space.decode(i));
    // Bit-exact replay of the first aggregate, no fresh noise draws.
    EXPECT_EQ(again.time_ms, first[static_cast<std::size_t>(i)].time_ms);
    EXPECT_EQ(again.cost_ms, first[static_cast<std::size_t>(i)].cost_ms);
  }

  const std::size_t n = static_cast<std::size_t>(space.size());
  EXPECT_EQ(counter.total_measurements(), 2 * n);
  EXPECT_EQ(cache.misses(), n);
  EXPECT_EQ(cache.hits(), n);
  EXPECT_EQ(cache.cache_size(), n);
  // The robust layer only ever ran the first sweep's repeats.
  EXPECT_EQ(robust.total_attempts(), 3 * n);
  EXPECT_EQ(inner.calls(), 3 * n);
}

// --- Tuner-level graceful degradation ---

AutoTunerOptions small_tuner_options(std::size_t n, std::size_t m) {
  AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 300;
  return o;
}

TEST(AutoTunerDegradation, StreamsPastAnAllInvalidSecondStage) {
  // The trap landscape steers every primary stage-2 candidate into the
  // invalid region; with streaming enabled the tuner must still return a
  // prediction because valid configurations exist (acceptance criterion).
  TrapEvaluator eval;
  common::Rng rng(6);
  AutoTunerOptions opts = small_tuner_options(100, 5);
  opts.stage2_stream_limit = static_cast<std::size_t>(eval.space().size());
  const AutoTuner tuner(opts);
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_LT(result.best_config.values[0], 16);  // necessarily valid
  EXPECT_GE(result.best_time_ms, TrapEvaluator::best_valid_time());
  EXPECT_EQ(result.stage2_rejections.count(clsim::Status::kOutOfLocalMemory),
            result.stage2_invalid);
}

TEST(AutoTunerDegradation, SurvivesSpuriousInvalidVerdicts) {
  // 70% of measurements come back spuriously invalid; retry cannot help
  // (the status looks permanent), only candidate streaming can.
  BowlEvaluator inner;
  FaultInjectingEvaluator faults(inner, {.spurious_rate = 0.7, .seed = 3});
  common::Rng rng(7);
  AutoTunerOptions opts = small_tuner_options(120, 5);
  opts.stage2_stream_limit = static_cast<std::size_t>(inner.space().size());
  const AutoTuner tuner(opts);
  const AutoTuneResult result = tuner.tune(faults, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.stage2_rejections.count(
                clsim::Status::kInvalidWorkGroupSize),
            0u);
}

TEST(AutoTunerDegradation, DisabledStreamingIsBitIdentical) {
  // With no faults and streaming disabled vs enabled, results must be
  // bit-identical (streaming only ever runs after an all-invalid stage 2).
  AutoTunerOptions off = small_tuner_options(80, 10);
  AutoTunerOptions on = small_tuner_options(80, 10);
  on.stage2_stream_limit = 500;
  BowlEvaluator e1;
  BowlEvaluator e2;
  common::Rng rng1(99);
  common::Rng rng2(99);
  const AutoTuneResult r1 = AutoTuner(off).tune(e1, TuneRun::with_rng(rng1));
  const AutoTuneResult r2 = AutoTuner(on).tune(e2, TuneRun::with_rng(rng2));
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.best_config, r2.best_config);
  EXPECT_EQ(r1.best_time_ms, r2.best_time_ms);
  EXPECT_EQ(r2.stage2_streamed, 0u);
  EXPECT_EQ(r1.stage2_measured, r2.stage2_measured);
}

TEST(AutoTunerDegradation, CountersFlowThroughRobustStack) {
  BowlEvaluator inner;
  FaultInjectingEvaluator faults(inner,
                                 {.transient_rate = 0.2, .seed = 21});
  RobustEvaluator robust(faults, {.repeats = 2, .max_retries = 6});
  common::Rng rng(8);
  const AutoTuner tuner(small_tuner_options(80, 10));
  const AutoTuneResult result = tuner.tune(robust, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  // 90 measurements, >= 2 raw attempts each, plus one per absorbed fault.
  EXPECT_EQ(result.measure_attempts, robust.total_attempts());
  EXPECT_EQ(result.transient_faults, robust.transient_failures());
  EXPECT_GT(result.transient_faults, 0u);
  EXPECT_EQ(result.measure_attempts,
            2 * (result.stage1_measured + result.stage2_measured) +
                result.transient_faults);
}

TEST(IterativeTunerDegradation, ExploresUntilFirstValidMeasurement) {
  // Valid configurations are vanishingly rare (A=8, B=8 only: 4 of 256);
  // a small initial sample usually misses them all.
  class RareValidEvaluator final : public Evaluator {
   public:
    RareValidEvaluator() : space_(testing::small_space()) {}
    [[nodiscard]] const ParamSpace& space() const override { return space_; }
    [[nodiscard]] std::string name() const override { return "rare"; }
    [[nodiscard]] Measurement measure(const Configuration& c) override {
      Measurement m;
      m.cost_ms = 0.1;
      if (c.values[0] != 8 || c.values[1] != 8) {
        m.valid = false;
        m.status = clsim::Status::kOutOfLocalMemory;
        return m;
      }
      m.valid = true;
      m.time_ms = 10.0 + static_cast<double>(c.values[2]);
      return m;
    }

   private:
    ParamSpace space_;
  };

  IterativeTunerOptions opts;
  opts.measurement_budget = 400;
  opts.initial_samples = 20;
  opts.batch_size = 40;
  opts.model.ensemble.k = 3;
  opts.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  opts.model.ensemble.trainer.common.max_epochs = 200;

  RareValidEvaluator off_eval;
  common::Rng off_rng(17);
  const IterativeTuneResult off =
      IterativeTuner(opts).tune(off_eval, TuneRun::with_rng(off_rng));
  ASSERT_FALSE(off.success);  // round 0 misses all 4 valid configs, gives up
  EXPECT_EQ(off.rejections.total(), off.invalid_measurements);

  opts.explore_until_valid = true;
  RareValidEvaluator on_eval;
  common::Rng on_rng(17);
  const IterativeTuneResult on =
      IterativeTuner(opts).tune(on_eval, TuneRun::with_rng(on_rng));
  ASSERT_TRUE(on.success);
  EXPECT_GT(on.resample_rounds, 0u);
  EXPECT_EQ(on.best_config.values[0], 8);
  EXPECT_EQ(on.best_config.values[1], 8);
}

// --- Determinism across thread counts ---

TEST(RobustDeterminism, FullTunerRunIdenticalAcrossThreadCounts) {
  const auto run = [] {
    BowlEvaluator inner;
    NoisyEvaluator noisy(inner, {.sigma = 0.2, .seed = 31});
    FaultInjectingEvaluator faults(noisy, {.transient_rate = 0.15,
                                           .spurious_rate = 0.1,
                                           .outlier_rate = 0.1,
                                           .seed = 32});
    RobustEvaluator robust(faults, {.repeats = 3, .max_retries = 5});
    common::Rng rng(55);
    AutoTunerOptions opts = small_tuner_options(80, 10);
    opts.stage2_stream_limit = static_cast<std::size_t>(inner.space().size());
    return AutoTuner(opts).tune(robust, TuneRun::with_rng(rng));
  };

  common::set_global_pool_threads(1);
  const AutoTuneResult single = run();
  common::set_global_pool_threads(4);
  const AutoTuneResult quad = run();
  common::set_global_pool_threads(0);  // restore the default for other tests

  ASSERT_EQ(single.success, quad.success);
  EXPECT_EQ(single.best_config, quad.best_config);
  EXPECT_EQ(single.best_time_ms, quad.best_time_ms);
  EXPECT_EQ(single.measure_attempts, quad.measure_attempts);
  EXPECT_EQ(single.transient_faults, quad.transient_faults);
  EXPECT_EQ(single.stage2_streamed, quad.stage2_streamed);
  EXPECT_EQ(single.data_gathering_cost_ms, quad.data_gathering_cost_ms);
  EXPECT_EQ(single.stage1_rejections.to_string(),
            quad.stage1_rejections.to_string());
  EXPECT_EQ(single.stage2_rejections.to_string(),
            quad.stage2_rejections.to_string());
}

}  // namespace
}  // namespace pt::tuner
