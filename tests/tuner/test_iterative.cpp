#include "tuner/iterative.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

IterativeTunerOptions fast_options() {
  IterativeTunerOptions o;
  o.measurement_budget = 180;
  o.initial_samples = 60;
  o.batch_size = 40;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 250;
  return o;
}

TEST(IterativeTuner, ConstructionValidation) {
  IterativeTunerOptions bad = fast_options();
  bad.measurement_budget = 0;
  EXPECT_THROW(IterativeTuner{bad}, std::invalid_argument);
  bad = fast_options();
  bad.initial_samples = 0;
  EXPECT_THROW(IterativeTuner{bad}, std::invalid_argument);
  bad = fast_options();
  bad.batch_size = 0;
  EXPECT_THROW(IterativeTuner{bad}, std::invalid_argument);
  bad = fast_options();
  bad.exploration_fraction = 1.5;
  EXPECT_THROW(IterativeTuner{bad}, std::invalid_argument);
}

TEST(IterativeTuner, TerminatesWhenBudgetExceedsSpace) {
  // Regression: with a budget larger than the space, the tuner must stop
  // once every configuration is measured instead of spinning on training
  // rounds that can never add data.
  BowlEvaluator eval;
  IterativeTunerOptions opts = fast_options();
  opts.measurement_budget = 400;  // space is 256
  common::Rng rng(12);
  const IterativeTuneResult result =
      IterativeTuner(opts).tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.measurements, eval.space().size());
  EXPECT_DOUBLE_EQ(result.best_time_ms, BowlEvaluator::optimum_time());
}

TEST(IterativeTuner, FindsNearOptimum) {
  BowlEvaluator eval;
  common::Rng rng(1);
  const IterativeTuner tuner(fast_options());
  const IterativeTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.best_time_ms, BowlEvaluator::optimum_time() * 1.1);
  EXPECT_TRUE(result.model.has_value());
}

TEST(IterativeTuner, RespectsBudget) {
  BowlEvaluator eval;
  common::Rng rng(2);
  const IterativeTuner tuner(fast_options());
  const IterativeTuneResult result = tuner.tune(eval, TuneRun::with_rng(rng));
  EXPECT_LE(result.measurements, tuner.options().measurement_budget);
  EXPECT_EQ(eval.calls(), result.measurements);  // never re-measures
}

TEST(IterativeTuner, IncumbentTraceMonotone) {
  BowlEvaluator eval;
  common::Rng rng(3);
  const IterativeTuneResult result =
      IterativeTuner(fast_options()).tune(eval, TuneRun::with_rng(rng));
  ASSERT_GE(result.incumbent_trace.size(), 2u);
  for (std::size_t i = 1; i < result.incumbent_trace.size(); ++i)
    EXPECT_LE(result.incumbent_trace[i], result.incumbent_trace[i - 1]);
  EXPECT_EQ(result.rounds, result.incumbent_trace.size());
}

TEST(IterativeTuner, HandlesInvalidRegions) {
  BowlEvaluator eval(/*with_invalid=*/true);
  common::Rng rng(4);
  const IterativeTuneResult result =
      IterativeTuner(fast_options()).tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.invalid_measurements, 0u);
  EXPECT_NE(result.best_config.values[0], 128);
}

TEST(IterativeTuner, AllInvalidRoundZeroGivesNoPrediction) {
  // Nothing valid to train on after round 0: the tuner stops there rather
  // than spend the rest of the budget at random.
  class AllInvalidEvaluator final : public Evaluator {
   public:
    AllInvalidEvaluator() : space_(testing::small_space()) {}
    [[nodiscard]] const ParamSpace& space() const override { return space_; }
    [[nodiscard]] std::string name() const override { return "invalid"; }
    [[nodiscard]] Measurement measure(const Configuration&) override {
      Measurement m;
      m.status = clsim::Status::kOutOfLocalMemory;
      m.cost_ms = 0.1;
      return m;
    }

   private:
    ParamSpace space_;
  };
  AllInvalidEvaluator eval;
  common::Rng rng(17);
  const IterativeTuneResult result =
      IterativeTuner(fast_options()).tune(eval, TuneRun::with_rng(rng));
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.model.has_value());
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.measurements, fast_options().initial_samples);
  EXPECT_EQ(result.invalid_measurements, result.measurements);
  EXPECT_EQ(result.rejections.count(clsim::Status::kOutOfLocalMemory),
            result.measurements);
}

TEST(IterativeTuner, BeatsOneShotRandomAtEqualBudget) {
  // At the same number of measurements, the model-guided batches should be
  // at least as good as the round-0 random sample alone was.
  BowlEvaluator eval;
  common::Rng rng(6);
  IterativeTunerOptions opts = fast_options();
  const IterativeTuneResult result =
      IterativeTuner(opts).tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.best_time_ms, result.incumbent_trace.front());
}

TEST(IterativeTuner, DeterministicGivenSeed) {
  const IterativeTuner tuner(fast_options());
  BowlEvaluator e1;
  BowlEvaluator e2;
  common::Rng r1(42);
  common::Rng r2(42);
  const auto a = tuner.tune(e1, TuneRun::with_rng(r1));
  const auto b = tuner.tune(e2, TuneRun::with_rng(r2));
  EXPECT_EQ(a.best_config, b.best_config);
  EXPECT_EQ(a.measurements, b.measurements);
}

}  // namespace
}  // namespace pt::tuner
