#include "tuner/autotuner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

AutoTunerOptions fast_options(std::size_t n, std::size_t m) {
  AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 300;
  return o;
}

TEST(AutoTuner, ConstructionValidation) {
  AutoTunerOptions zero_n = fast_options(0, 10);
  EXPECT_THROW(AutoTuner{zero_n}, std::invalid_argument);
  AutoTunerOptions zero_m = fast_options(10, 0);
  EXPECT_THROW(AutoTuner{zero_m}, std::invalid_argument);
}

TEST(AutoTuner, FindsNearOptimalOnSmoothLandscape) {
  BowlEvaluator eval;
  common::Rng rng(1);
  const AutoTuner tuner(fast_options(120, 20));
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  // On a 256-point smooth bowl, stage 2 should capture the optimum.
  EXPECT_LE(result.best_time_ms, BowlEvaluator::optimum_time() * 1.10);
}

TEST(AutoTuner, BookkeepingConsistent) {
  BowlEvaluator eval;
  common::Rng rng(2);
  const AutoTuner tuner(fast_options(80, 15));
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stage1_measured, 80u);
  EXPECT_EQ(result.stage1_valid, 80u);  // no invalids in this evaluator
  EXPECT_EQ(result.stage2_measured, 15u);
  EXPECT_EQ(result.training_data.size(), result.stage1_valid);
  EXPECT_GT(result.data_gathering_cost_ms, 0.0);
  EXPECT_GT(result.model_training_host_ms, 0.0);
  ASSERT_TRUE(result.model.has_value());
  EXPECT_TRUE(result.model->fitted());
}

TEST(AutoTuner, SkipsInvalidTrainingConfigs) {
  BowlEvaluator eval(/*with_invalid=*/true);
  common::Rng rng(3);
  const AutoTuner tuner(fast_options(150, 20));
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  // 1/8 of the space (A=128) is invalid; training data excludes it.
  EXPECT_LT(result.stage1_valid, result.stage1_measured);
  for (const auto& sample : result.training_data)
    EXPECT_NE(sample.config.values[0], 128);
}

TEST(AutoTuner, SecondStageInvalidsAreCountedNotFatal) {
  BowlEvaluator eval(/*with_invalid=*/true);
  common::Rng rng(4);
  const AutoTuner tuner(fast_options(120, 30));
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stage2_measured, 30u);
  // The winner is necessarily valid.
  EXPECT_NE(result.best_config.values[0], 128);
}

/// Evaluator where *everything* is invalid: the tuner must give up cleanly.
class AllInvalidEvaluator final : public Evaluator {
 public:
  AllInvalidEvaluator() : space_(testing::small_space()) {}
  const ParamSpace& space() const override { return space_; }
  std::string name() const override { return "all-invalid"; }
  Measurement measure(const Configuration&) override {
    Measurement m;
    m.valid = false;
    m.status = clsim::Status::kOutOfResources;
    m.cost_ms = 0.1;
    return m;
  }

 private:
  ParamSpace space_;
};

TEST(AutoTuner, NoValidDataGivesNoPrediction) {
  AllInvalidEvaluator eval;
  common::Rng rng(5);
  const AutoTuner tuner(fast_options(50, 10));
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.stage1_valid, 0u);
  EXPECT_FALSE(result.model.has_value());
  EXPECT_GT(result.data_gathering_cost_ms, 0.0);
}

using testing::TrapEvaluator;

TEST(AutoTuner, AllInvalidSecondStageReportsFailureButKeepsModel) {
  TrapEvaluator eval;
  common::Rng rng(6);
  AutoTunerOptions opts = fast_options(100, 5);
  const AutoTuner tuner(opts);
  const AutoTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  // The model extrapolates "bigger A is faster" into the invalid region,
  // so all 5 stage-2 candidates are invalid -> no prediction.
  if (!result.success) {
    EXPECT_EQ(result.stage2_invalid, result.stage2_measured);
    EXPECT_TRUE(result.model.has_value());  // retained for inspection
    // The failure mode is diagnosable: every rejection carries its status.
    EXPECT_EQ(result.stage2_rejections.total(), result.stage2_invalid);
    EXPECT_EQ(result.stage2_rejections.count(clsim::Status::kOutOfLocalMemory),
              result.stage2_invalid);
  }
  // (If the model happens to keep a valid candidate, success is legitimate;
  // both outcomes are accepted, mirroring the paper's "sometimes".)
}

/// Records the configurations stage 1 measured, in order.
class SampleRecorder final : public TunerObserver {
 public:
  void on_sample(std::string_view /*stage*/, const Configuration& config,
                 const Measurement& /*m*/) override {
    samples.push_back(config);
  }
  std::vector<Configuration> samples;
};

TEST(AutoTuner, CustomSamplerIsUsed) {
  BowlEvaluator eval;
  const LatinHypercubeSampler lhs;
  SampleRecorder recorder;
  TuneRun request = TuneRun::with_seed(8);
  request.sampler = &lhs;
  request.observer = &recorder;
  const AutoTuneResult result =
      AutoTuner(fast_options(100, 20)).tune(eval, request);
  EXPECT_TRUE(result.success);

  common::Rng lhs_rng(8);
  EXPECT_EQ(recorder.samples, lhs.sample(eval.space(), 100, lhs_rng));
  common::Rng uniform_rng(8);  // what the default sampler would have drawn
  EXPECT_NE(recorder.samples,
            RandomSampler().sample(eval.space(), 100, uniform_rng));
}

TEST(AutoTuner, DeterministicGivenSeed) {
  const AutoTuner tuner(fast_options(80, 10));
  BowlEvaluator e1;
  BowlEvaluator e2;
  common::Rng rng1(99);
  common::Rng rng2(99);
  const auto r1 = tuner.tune(e1, TuneRun::with_rng(rng1));
  const auto r2 = tuner.tune(e2, TuneRun::with_rng(rng2));
  ASSERT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.best_config, r2.best_config);
  EXPECT_DOUBLE_EQ(r1.best_time_ms, r2.best_time_ms);
}

/// The cross-thread-count invariant the serve layer's determinism contract
/// rests on: one seed, different pool sizes, identical results.
TEST(AutoTuner, SeededTuneIdenticalAcrossThreadCounts) {
  std::optional<std::pair<Configuration, double>> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_global_pool_threads(threads);
    BowlEvaluator eval;
    const AutoTuneResult result =
        AutoTuner(fast_options(80, 12)).tune(eval, TuneRun::with_seed(21));
    ASSERT_TRUE(result.success);
    if (!reference) {
      reference.emplace(result.best_config, result.best_time_ms);
    } else {
      EXPECT_EQ(result.best_config, reference->first);
      EXPECT_EQ(result.best_time_ms, reference->second);
    }
  }
  common::set_global_pool_threads(0);
}

}  // namespace
}  // namespace pt::tuner
