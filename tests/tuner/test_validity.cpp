#include "tuner/validity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "test_helpers.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/observer.hpp"

namespace pt::tuner {
namespace {

using testing::small_space;

/// Labelled sample of the BowlEvaluator's invalid region (A == 128).
void make_labels(const ParamSpace& space, std::size_t n, common::Rng& rng,
                 std::vector<Configuration>& valid,
                 std::vector<Configuration>& invalid) {
  for (std::size_t i = 0; i < n; ++i) {
    Configuration c = space.random(rng);
    (c.values[0] == 128 ? invalid : valid).push_back(std::move(c));
  }
}

TEST(ValidityModel, UnfittedAcceptsEverything) {
  const ValidityModel model;
  EXPECT_FALSE(model.fitted());
  EXPECT_DOUBLE_EQ(model.score(Configuration{{128, 1, 0}}), 1.0);
  EXPECT_TRUE(model.predict_valid(Configuration{{128, 1, 0}}));
}

TEST(ValidityModel, SingleClassStaysUnfitted) {
  ValidityModel model;
  common::Rng rng(1);
  const ParamSpace space = small_space();
  model.fit(space, {space.decode(0), space.decode(1)}, {}, rng);
  EXPECT_FALSE(model.fitted());
  model.fit(space, {}, {space.decode(0)}, rng);
  EXPECT_FALSE(model.fitted());
}

TEST(ValidityModel, LearnsASeparableRule) {
  const ParamSpace space = small_space();
  common::Rng rng(2);
  std::vector<Configuration> valid;
  std::vector<Configuration> invalid;
  make_labels(space, 180, rng, valid, invalid);
  ASSERT_GT(invalid.size(), 5u);

  ValidityModel model;
  model.fit(space, valid, invalid, rng);
  ASSERT_TRUE(model.fitted());

  // Held-out accuracy on fresh labels.
  std::vector<Configuration> valid_test;
  std::vector<Configuration> invalid_test;
  make_labels(space, 120, rng, valid_test, invalid_test);
  EXPECT_GT(model.accuracy(space, valid_test, invalid_test), 0.85);
}

TEST(ValidityModel, ScoresAreProbabilityLike) {
  const ParamSpace space = small_space();
  common::Rng rng(3);
  std::vector<Configuration> valid;
  std::vector<Configuration> invalid;
  make_labels(space, 200, rng, valid, invalid);
  ValidityModel model;
  model.fit(space, valid, invalid, rng);
  for (std::uint64_t i = 0; i < space.size(); i += 7) {
    const double s = model.score(space.decode(i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(ValidityModel, ThresholdControlsStrictness) {
  const ParamSpace space = small_space();
  common::Rng rng(4);
  std::vector<Configuration> valid;
  std::vector<Configuration> invalid;
  make_labels(space, 200, rng, valid, invalid);

  ValidityModel::Options strict;
  strict.threshold = 0.95;
  ValidityModel strict_model(strict);
  strict_model.fit(space, valid, invalid, rng);
  ValidityModel::Options lax;
  lax.threshold = 0.05;
  ValidityModel lax_model(lax);
  lax_model.fit(space, valid, invalid, rng);

  std::size_t strict_accepts = 0;
  std::size_t lax_accepts = 0;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration c = space.decode(i);
    if (strict_model.predict_valid(c)) ++strict_accepts;
    if (lax_model.predict_valid(c)) ++lax_accepts;
  }
  EXPECT_LE(strict_accepts, lax_accepts);
}

// The headline: the trap landscape where the baseline tuner ends up with an
// all-invalid second stage becomes solvable with the filter on.
TEST(ValidityFilter, RescuesTheTrapLandscape) {
  /// Valid region is slow and slopes toward a large invalid region.
  class TrapEvaluator final : public Evaluator {
   public:
    TrapEvaluator() : space_(small_space()) {}
    const ParamSpace& space() const override { return space_; }
    std::string name() const override { return "trap"; }
    Measurement measure(const Configuration& config) override {
      Measurement m;
      m.cost_ms = 0.1;
      if (config.values[0] >= 16) {
        m.valid = false;
        m.status = clsim::Status::kOutOfLocalMemory;
        return m;
      }
      m.valid = true;
      const double a = std::log2(static_cast<double>(config.values[0]));
      const double b = std::log2(static_cast<double>(config.values[1]));
      m.time_ms = 100.0 - 10.0 * a + 0.5 * b;
      return m;
    }

   private:
    ParamSpace space_;
  };

  AutoTunerOptions base;
  base.training_samples = 120;
  base.second_stage_size = 5;
  base.model.ensemble.k = 3;
  base.model.ensemble.trainer.common.max_epochs = 250;

  std::size_t baseline_failures = 0;
  std::size_t filtered_failures = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    {
      TrapEvaluator eval;
      common::Rng rng(seed);
      if (!AutoTuner(base).tune(eval, TuneRun::with_rng(rng)).success)
        ++baseline_failures;
    }
    {
      AutoTunerOptions with_filter = base;
      with_filter.validity_filter = true;
      TrapEvaluator eval;
      common::Rng rng(seed);
      const auto result =
          AutoTuner(with_filter).tune(eval, TuneRun::with_rng(rng));
      if (!result.success) ++filtered_failures;
      if (result.success) {
        EXPECT_LT(result.best_config.values[0], 16);
        EXPECT_TRUE(result.validity_model.has_value());
        EXPECT_GT(result.stage2_filtered, 0u);
      }
    }
  }
  // The filter must not be worse, and should rescue at least one seed the
  // baseline lost (the baseline fails on most seeds by construction).
  EXPECT_LE(filtered_failures, baseline_failures);
  EXPECT_EQ(filtered_failures, 0u);
}

// A classifier that passes fewer than M configurations: stage 2 measures the
// ones it passes first, in predicted order, then tops up with the best
// configurations of the unfiltered ranking it has not taken, until it has
// measured min(M, |space|) distinct ones.
TEST(ValidityFilter, TopsUpFromTheUnfilteredRanking) {
  class Candidates final : public TunerObserver {
   public:
    void on_candidate(std::uint64_t index, double predicted_ms) override {
      seen.push_back({index, predicted_ms});
    }
    std::vector<ScanCandidate> seen;
  };
  AutoTunerOptions opts;
  opts.training_samples = 120;
  opts.second_stage_size = 200;  // the trap has 128 valid configurations
  opts.validity_filter = true;
  opts.model.ensemble.k = 3;
  opts.model.ensemble.trainer.common.max_epochs = 250;
  testing::TrapEvaluator eval;
  Candidates candidates;
  TuneRun run = TuneRun::with_seed(3);
  run.observer = &candidates;
  const AutoTuneResult result = AutoTuner(opts).tune(eval, run);
  ASSERT_TRUE(result.success);
  ASSERT_TRUE(result.model.has_value());
  ASSERT_TRUE(result.validity_model.has_value());

  const ParamSpace& space = eval.space();
  const std::size_t m = opts.second_stage_size;
  const ValidityModel& validity = *result.validity_model;
  const ScanFilter filter = [&space, &validity](std::uint64_t index) {
    return validity.predict_valid(space.decode(index));
  };
  const ScanEngine engine = result.model->scan_engine();
  const TopMScanResult passed =
      engine.reference_top_m(0, space.size(), m, filter);
  ASSERT_GT(passed.top.size(), 0u);
  ASSERT_LT(passed.top.size(), m);  // the case under test
  EXPECT_EQ(result.stage2_filtered,
            result.model->predict_scan_top_m(0, space.size(), m, filter)
                .rejected);

  std::vector<ScanCandidate> want = passed.top;
  std::set<std::uint64_t> taken;
  for (const ScanCandidate& c : want) taken.insert(c.index);
  for (const ScanCandidate& c : engine.reference_top_m(0, space.size(), m).top)
    if (want.size() < m && taken.insert(c.index).second) want.push_back(c);
  ASSERT_EQ(want.size(), std::min<std::uint64_t>(m, space.size()));
  ASSERT_EQ(candidates.seen.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(candidates.seen[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(candidates.seen[i].predicted_ms, want[i].predicted_ms)
        << "rank " << i;
  }
  EXPECT_EQ(taken.size(), want.size());  // distinct configurations
  EXPECT_EQ(result.stage2_measured, want.size());
}

TEST(ValidityFilter, NoOpWhenEverythingIsValid) {
  testing::BowlEvaluator eval;  // no invalid region
  AutoTunerOptions opts;
  opts.training_samples = 100;
  opts.second_stage_size = 10;
  opts.validity_filter = true;
  opts.model.ensemble.k = 3;
  opts.model.ensemble.trainer.common.max_epochs = 250;
  common::Rng rng(9);
  const auto result = AutoTuner(opts).tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(result.validity_model.has_value());  // single class only
  EXPECT_EQ(result.stage2_filtered, 0u);
}

}  // namespace
}  // namespace pt::tuner
