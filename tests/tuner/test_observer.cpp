#include "tuner/observer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "test_helpers.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

AutoTunerOptions fast_auto(std::size_t n, std::size_t m) {
  AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 200;
  return o;
}

IterativeTunerOptions fast_iterative() {
  IterativeTunerOptions o;
  o.measurement_budget = 90;
  o.initial_samples = 40;
  o.batch_size = 25;
  o.model.ensemble.k = 2;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{10, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 120;
  return o;
}

/// Tallies every hook and checks begin/end form a properly nested stack.
class RecordingObserver final : public TunerObserver {
 public:
  void on_stage_begin(std::string_view tuner,
                      std::string_view stage) override {
    open_.emplace_back(std::string(tuner), std::string(stage));
    if (stages == 0) root = {std::string(tuner), std::string(stage)};
    ++stages;
    // Each model fit replays a fresh (member, epoch) sequence.
    if (stage.find("model.fit") != std::string_view::npos)
      fit_restart_ = true;
  }
  void on_stage_end(std::string_view tuner, std::string_view stage) override {
    ASSERT_FALSE(open_.empty()) << "stage end without begin: " << stage;
    EXPECT_EQ(open_.back().first, std::string(tuner));
    EXPECT_EQ(open_.back().second, std::string(stage));
    open_.pop_back();
  }
  void on_sample(std::string_view /*stage*/, const Configuration& /*config*/,
                 const Measurement& /*m*/) override {
    ++samples;
  }
  void on_epoch(std::size_t member, std::size_t epoch, double train_loss,
                double /*monitored*/) override {
    // Delivered in (member, epoch) order within each fit.
    if (fit_restart_) {
      fit_restart_ = false;
      EXPECT_EQ(member, 0u);
      EXPECT_EQ(epoch, 0u);
    } else if (member != last_member) {
      EXPECT_GE(member, last_member);
      EXPECT_EQ(epoch, 0u);
    } else {
      EXPECT_EQ(epoch, last_epoch + 1);
    }
    last_member = member;
    last_epoch = epoch;
    EXPECT_GE(train_loss, 0.0);
    ++epochs;
  }
  void on_candidate(std::uint64_t index, double predicted_ms) override {
    EXPECT_GT(predicted_ms, 0.0);
    last_candidate_index = index;
    ++candidates;
  }
  void on_measurement(std::string_view /*stage*/,
                      const Configuration& /*config*/,
                      const Measurement& /*m*/) override {
    ++measurements;
  }

  [[nodiscard]] bool balanced() const { return open_.empty(); }

  std::pair<std::string, std::string> root;
  std::size_t stages = 0;
  std::size_t samples = 0;
  std::size_t epochs = 0;
  std::size_t candidates = 0;
  std::size_t measurements = 0;
  std::size_t last_member = 0;
  std::size_t last_epoch = 0;
  std::uint64_t last_candidate_index = 0;

 private:
  std::vector<std::pair<std::string, std::string>> open_;
  bool fit_restart_ = true;
};

void expect_same_auto(const AutoTuneResult& a, const AutoTuneResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_config.values, b.best_config.values);
  EXPECT_EQ(a.best_time_ms, b.best_time_ms);  // bit-identical, not approx
  EXPECT_EQ(a.stage1_measured, b.stage1_measured);
  EXPECT_EQ(a.stage1_valid, b.stage1_valid);
  EXPECT_EQ(a.stage2_measured, b.stage2_measured);
  EXPECT_EQ(a.training_data.size(), b.training_data.size());
}

void expect_same_iterative(const IterativeTuneResult& a,
                           const IterativeTuneResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_config.values, b.best_config.values);
  EXPECT_EQ(a.best_time_ms, b.best_time_ms);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.measurements, b.measurements);
  EXPECT_EQ(a.incumbent_trace, b.incumbent_trace);
}

TEST(TuneRun, DefaultRequestIsSeedOne) {
  // The service and bench/e2e rely on tune(eval) being
  // tune(eval, TuneRun::with_seed(1)).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_global_pool_threads(threads);
    const AutoTuner autotuner(fast_auto(80, 15));
    BowlEvaluator auto_default;
    BowlEvaluator auto_seeded;
    expect_same_auto(autotuner.tune(auto_default),
                     autotuner.tune(auto_seeded, TuneRun::with_seed(1)));
    EXPECT_EQ(auto_default.calls(), auto_seeded.calls());

    const IterativeTuner iterative(fast_iterative());
    BowlEvaluator iterative_default;
    BowlEvaluator iterative_seeded;
    expect_same_iterative(
        iterative.tune(iterative_default),
        iterative.tune(iterative_seeded, TuneRun::with_seed(1)));
    EXPECT_EQ(iterative_default.calls(), iterative_seeded.calls());
  }
  common::set_global_pool_threads(0);
}

TEST(TuneRun, SeedMatchesRngOfThatSeed) {
  const AutoTuner tuner(fast_auto(80, 15));
  BowlEvaluator eval_rng;
  common::Rng rng(5);
  const AutoTuneResult via_rng = tuner.tune(eval_rng, TuneRun::with_rng(rng));
  BowlEvaluator eval_seed;
  const AutoTuneResult via_seed = tuner.tune(eval_seed, TuneRun::with_seed(5));

  expect_same_auto(via_rng, via_seed);
  EXPECT_EQ(eval_rng.calls(), eval_seed.calls());
}

TEST(TuneRun, ObservedRngRequestMatchesBareRngRequest) {
  // What exp::autotuner_slowdown_grid does: one external Rng, plus a
  // collector (and here an observer) on the request.
  const AutoTuner tuner(fast_auto(80, 15));
  BowlEvaluator eval_bare;
  common::Rng rng_bare(13);
  const AutoTuneResult bare =
      tuner.tune(eval_bare, TuneRun::with_rng(rng_bare));

  RecordingObserver obs;
  common::telemetry::Collector collector;
  BowlEvaluator eval_observed;
  common::Rng rng_observed(13);
  TuneRun request = TuneRun::with_rng(rng_observed);
  request.observer = &obs;
  request.telemetry = &collector;
  const AutoTuneResult observed = tuner.tune(eval_observed, request);

  expect_same_auto(bare, observed);
  EXPECT_EQ(eval_bare.calls(), eval_observed.calls());
  EXPECT_EQ(rng_bare(), rng_observed());  // both runs drew alike
  EXPECT_TRUE(obs.balanced());
  EXPECT_GT(obs.epochs, 0u);
  EXPECT_FALSE(collector.spans().empty());
  EXPECT_FALSE(common::telemetry::enabled());  // nothing leaked
}

TEST(TuneRun, ObserverAndTelemetryDoNotPerturbAutoTuner) {
  const AutoTuner tuner(fast_auto(80, 15));
  BowlEvaluator eval_off;
  const AutoTuneResult off = tuner.tune(eval_off, TuneRun::with_seed(11));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_global_pool_threads(threads);
    RecordingObserver obs;
    common::telemetry::Collector collector;
    TuneRun request = TuneRun::with_seed(11);
    request.observer = &obs;
    request.telemetry = &collector;
    BowlEvaluator eval_on;
    const AutoTuneResult on = tuner.tune(eval_on, request);

    expect_same_auto(off, on);
    EXPECT_EQ(eval_off.calls(), eval_on.calls());
    EXPECT_TRUE(obs.balanced());
    EXPECT_FALSE(collector.spans().empty());
  }
  common::set_global_pool_threads(0);
  EXPECT_FALSE(common::telemetry::enabled());  // nothing leaked
}

TEST(TuneRun, ObserverAndTelemetryDoNotPerturbIterativeTuner) {
  const IterativeTuner tuner(fast_iterative());
  BowlEvaluator eval_off;
  const IterativeTuneResult off = tuner.tune(eval_off, TuneRun::with_seed(21));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::set_global_pool_threads(threads);
    RecordingObserver obs;
    common::telemetry::Collector collector;
    TuneRun request = TuneRun::with_seed(21);
    request.observer = &obs;
    request.telemetry = &collector;
    BowlEvaluator eval_on;
    const IterativeTuneResult on = tuner.tune(eval_on, request);

    expect_same_iterative(off, on);
    EXPECT_EQ(eval_off.calls(), eval_on.calls());
    EXPECT_TRUE(obs.balanced());
    EXPECT_FALSE(collector.spans().empty());
    EXPECT_EQ(collector.counter("tuner.iterative.measurements"),
              static_cast<double>(on.measurements));
  }
  common::set_global_pool_threads(0);
  EXPECT_FALSE(common::telemetry::enabled());
}

TEST(TunerObserver, AutoTunerCallbacksAreConsistentWithResult) {
  RecordingObserver obs;
  common::telemetry::Collector collector;
  TuneRun request = TuneRun::with_seed(3);
  request.observer = &obs;
  request.telemetry = &collector;
  BowlEvaluator eval;
  const AutoTuneResult result =
      AutoTuner(fast_auto(80, 15)).tune(eval, request);
  ASSERT_TRUE(result.success);

  EXPECT_TRUE(obs.balanced());
  EXPECT_EQ(obs.root.first, "autotuner");
  EXPECT_EQ(obs.root.second, "autotuner.tune");
  EXPECT_EQ(obs.samples, result.stage1_measured);
  EXPECT_EQ(obs.measurements,
            result.stage1_measured + result.stage2_measured);
  EXPECT_EQ(obs.candidates, result.stage2_measured);
  EXPECT_GT(obs.epochs, 0u);

  // Telemetry counters agree with the result bookkeeping.
  EXPECT_EQ(collector.counter("tuner.stage1.measured"),
            static_cast<double>(result.stage1_measured));
  EXPECT_EQ(collector.counter("tuner.stage2.measured"),
            static_cast<double>(result.stage2_measured));
  // Per-epoch loss reached the histogram registry.
  bool saw_loss = false;
  for (const auto& [name, h] : collector.histograms()) {
    if (name == "ml.train.epoch_loss") {
      saw_loss = true;
      EXPECT_EQ(h.count, obs.epochs);
    }
  }
  EXPECT_TRUE(saw_loss);
}

TEST(TunerObserver, CacheCountersSurfaceInResult) {
  BowlEvaluator base;
  CachingEvaluator cache(base);
  const AutoTuneResult result =
      AutoTuner(fast_auto(80, 15)).tune(cache, TuneRun::with_seed(9));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cache_hits, cache.hits());
  EXPECT_EQ(result.cache_misses, cache.misses());
  EXPECT_EQ(result.cache_hits + result.cache_misses,
            result.stage1_measured + result.stage2_measured);
}

}  // namespace
}  // namespace pt::tuner
