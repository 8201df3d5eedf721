// Static pre-filter tests: the clstat scan filter must prune exactly the
// proven-invalid configurations (with tallied verdicts and filter
// composition), leave AutoTuner selections bit-identical when stage 2
// covers the scanned range, and keep a trap landscape's invalid region out
// of stage 2 where the paper's protocol gives no prediction.

#include <gtest/gtest.h>

#include <memory>

#include "test_helpers.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {
namespace {

namespace az = clsim::analyze;

using testing::BowlEvaluator;
using testing::small_space;
using testing::TrapEvaluator;

/// Analyzer view of testing::small_space with one complete rule, A < limit:
/// everything else is valid.
std::shared_ptr<const az::StaticChecker> small_space_checker(double limit) {
  az::KernelConstraints kc;
  kc.kernel_name = "small_space";
  kc.domain = az::ParamDomain({
      {"A", {1, 2, 4, 8, 16, 32, 64, 128}},
      {"B", {1, 2, 4, 8, 16, 32, 64, 128}},
      {"C", {0, 1, 2, 3}},
  });
  kc.complete = true;
  kc.constraints.push_back({"a_group_limit",
                            az::ConstraintCategory::kWorkGroupGeometry,
                            az::param_expr(kc.domain, "A"),
                            az::Relation::kLess, az::cexpr(limit),
                            az::AffineExpr{}});
  return std::make_shared<az::StaticChecker>(std::move(kc),
                                             clsim::DeviceInfo{});
}

/// The BowlEvaluator(with_invalid) rule: A=128 is rejected.
std::shared_ptr<const az::StaticChecker> bowl_checker() {
  return small_space_checker(128.0);
}

/// First flat index whose decoded A value matches `a`.
std::uint64_t index_with_a(const ParamSpace& space, int a) {
  for (std::uint64_t i = 0; i < space.size(); ++i)
    if (space.decode(i).values[0] == a) return i;
  ADD_FAILURE() << "no config with A=" << a;
  return 0;
}

TEST(StaticScanFilter, PrunesExactlyTheProvedInvalidConfigs) {
  const ParamSpace space = small_space();
  const auto checker = bowl_checker();
  StaticPruneCounters counters;
  const ScanFilter filter =
      make_static_scan_filter(space, *checker, counters);

  const std::uint64_t invalid_index = index_with_a(space, 128);
  const std::uint64_t valid_index = index_with_a(space, 8);
  EXPECT_FALSE(filter(invalid_index));
  EXPECT_TRUE(filter(valid_index));
  EXPECT_EQ(counters.checked.load(), 2u);
  EXPECT_EQ(counters.pruned.load(), 1u);
  EXPECT_EQ(counters.proved_valid.load(), 1u);
  EXPECT_EQ(counters.unknown.load(), 0u);
}

TEST(StaticScanFilter, IncompleteSetsTallyUnknownButKeep) {
  const ParamSpace space = small_space();
  az::KernelConstraints kc;
  kc.domain = az::ParamDomain({{"A", {1, 2, 4, 8, 16, 32, 64, 128}},
                               {"B", {1, 2, 4, 8, 16, 32, 64, 128}},
                               {"C", {0, 1, 2, 3}}});
  kc.complete = false;  // can prove invalidity, never validity
  kc.constraints.push_back({"a_group_limit",
                            az::ConstraintCategory::kWorkGroupGeometry,
                            az::param_expr(kc.domain, "A"),
                            az::Relation::kLess, az::cexpr(128.0),
                            az::AffineExpr{}});
  const az::StaticChecker checker(std::move(kc), clsim::DeviceInfo{});
  StaticPruneCounters counters;
  const ScanFilter filter = make_static_scan_filter(space, checker, counters);
  EXPECT_TRUE(filter(index_with_a(space, 8)));   // unknown: kept
  EXPECT_FALSE(filter(index_with_a(space, 128)));
  EXPECT_EQ(counters.unknown.load(), 1u);
  EXPECT_EQ(counters.pruned.load(), 1u);
  EXPECT_EQ(counters.proved_valid.load(), 0u);
}

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

// The acceptance property: with stage 2 covering the whole scanned range,
// enabling the static pre-filter changes *which configurations get
// measured* (the proven-invalid ones drop out) but not the selection — the
// filter consumes no randomness and only removes configurations that could
// never win.
TEST(StaticScanFilter, AutoTunerSelectionBitIdenticalWithCoveringStage2) {
  AutoTunerOptions plain = fast_options(100, 256);
  AutoTunerOptions filtered = plain;
  filtered.static_checker = bowl_checker();

  BowlEvaluator eval_plain(/*with_invalid=*/true);
  common::Rng rng_plain(21);
  const AutoTuneResult without =
      AutoTuner(plain).tune(eval_plain, TuneRun::with_rng(rng_plain));

  BowlEvaluator eval_filtered(/*with_invalid=*/true);
  common::Rng rng_filtered(21);
  const AutoTuneResult with =
      AutoTuner(filtered).tune(eval_filtered, TuneRun::with_rng(rng_filtered));

  ASSERT_TRUE(without.success);
  ASSERT_TRUE(with.success);
  EXPECT_EQ(without.best_config, with.best_config);
  EXPECT_DOUBLE_EQ(without.best_time_ms, with.best_time_ms);

  // The filtered run proves work happened: every A=128 candidate good
  // enough for the stage-2 heap was pruned before measurement.
  EXPECT_GT(with.static_checked, 0u);
  EXPECT_GT(with.static_pruned, 0u);
  EXPECT_EQ(with.static_checked,
            with.static_pruned + with.static_proved_valid +
                with.static_unknown);
  EXPECT_EQ(without.static_checked, 0u);
  // Stage 2 measured no proven-invalid configuration.
  EXPECT_EQ(with.stage2_invalid, 0u);
  EXPECT_GT(without.stage2_invalid, 0u);
}

// The paper's stereo-on-GPU failure in miniature (testing::TrapEvaluator):
// the paper's protocol fills stage 2 with invalid configurations and gives
// no prediction. The trap's declared constraint (A < 16) keeps them out of
// the scan: on every seed stage 2 measures nothing invalid and finds the
// best valid time.
TEST(StaticScanFilter, RescuesTheTrapLandscape) {
  AutoTunerOptions paper;
  paper.training_samples = 120;
  paper.second_stage_size = 5;
  paper.model.ensemble.k = 3;
  paper.model.ensemble.trainer.common.max_epochs = 250;
  AutoTunerOptions checked = paper;
  checked.static_checker = small_space_checker(16.0);  // the trap: A >= 16

  std::size_t paper_failures = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    {
      TrapEvaluator eval;
      common::Rng rng(seed);
      if (!AutoTuner(paper).tune(eval, TuneRun::with_rng(rng)).success)
        ++paper_failures;
    }
    TrapEvaluator eval;
    common::Rng rng(seed);
    const AutoTuneResult result =
        AutoTuner(checked).tune(eval, TuneRun::with_rng(rng));
    ASSERT_TRUE(result.success) << "seed " << seed;
    EXPECT_EQ(result.best_time_ms, TrapEvaluator::best_valid_time());
    EXPECT_EQ(result.stage2_invalid, 0u);
    EXPECT_EQ(result.stage2_measured, paper.second_stage_size);
    EXPECT_GT(result.static_pruned, 0u);
    EXPECT_EQ(result.static_unknown, 0u);
  }
  EXPECT_GT(paper_failures, 0u);  // the trap does catch the paper's protocol
}

TEST(StaticScanFilter, IterativeTunerPrunesAndStaysSound) {
  IterativeTunerOptions options;
  options.measurement_budget = 60;
  options.initial_samples = 30;
  options.batch_size = 15;
  options.exploration_fraction = 0.25;
  options.model.ensemble.k = 3;
  options.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  options.model.ensemble.trainer.common.max_epochs = 300;
  options.static_checker = bowl_checker();

  BowlEvaluator eval(/*with_invalid=*/true);
  common::Rng rng(5);
  const IterativeTuneResult result =
      IterativeTuner(options).tune(eval, TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_NE(result.best_config.values[0], 128);
  EXPECT_GT(result.static_checked, 0u);
  EXPECT_EQ(result.static_checked,
            result.static_pruned + result.static_proved_valid +
                result.static_unknown);
}

}  // namespace
}  // namespace pt::tuner
