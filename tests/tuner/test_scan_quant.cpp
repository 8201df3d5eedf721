// Tests for the quantized scan path (tuner/scan.hpp kQuantInt8): the top-M
// selection must be exactly the fp64 reference — indices and predicted
// values — at 1 and 4 threads, with validity filters, under adversarially
// widened near-tie bands, and through the input-aware model (whose instance
// features become degenerate calibration ranges). Also the re-rank
// accounting and the engine-missing error paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "tuner/input_aware.hpp"
#include "tuner/model.hpp"
#include "tuner/scan.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

/// 8*8*4*6*6*8 = 73728 configurations: crosses the 65536-row chunk boundary
/// so the merge path and a partial tail chunk are both exercised.
ParamSpace big_space() {
  ParamSpace space;
  space.add("A", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("B", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("C", {0, 1, 2, 3});
  space.add("D", {1, 2, 3, 4, 5, 6});
  space.add("E", {1, 2, 4, 8, 16, 32});
  space.add("F", {1, 2, 3, 4, 5, 6, 7, 8});
  return space;
}

double synthetic_time_ms(const Configuration& c) {
  const double a = std::log2(static_cast<double>(c.values[0]));
  const double b = std::log2(static_cast<double>(c.values[1]));
  const double d = static_cast<double>(c.values[3]);
  const double e = std::log2(static_cast<double>(c.values[4]));
  return 1.0 + (a - 3.0) * (a - 3.0) + 0.3 * (b - 2.0) * (b - 2.0) +
         0.1 * d + 0.2 * (e - 1.0) * (e - 1.0) +
         0.05 * static_cast<double>(c.values[2]) +
         0.02 * static_cast<double>(c.values[5]);
}

AnnPerformanceModel trained_model(const ParamSpace& space) {
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{12, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 150;
  opts.ensemble.trainer.common.patience = 40;
  AnnPerformanceModel model(opts);
  common::Rng rng(99);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 150);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);
  return model;
}

ScanOptions options_for(ScanInference inference) {
  ScanOptions scan;
  scan.inference = inference;
  return scan;
}

ScanOptions int8_options() { return options_for(ScanInference::kQuantInt8); }
ScanOptions fp64_options() { return options_for(ScanInference::kScalarFp64); }

void expect_same_selection(const TopMScanResult& fp64,
                           const TopMScanResult& quant) {
  ASSERT_EQ(fp64.top.size(), quant.top.size());
  for (std::size_t i = 0; i < fp64.top.size(); ++i) {
    EXPECT_EQ(fp64.top[i].index, quant.top[i].index) << "rank " << i;
    // The quantized paths re-rank through the fp64 reference, so predicted
    // values of the selection are bit-identical, not merely close.
    EXPECT_EQ(fp64.top[i].predicted_ms, quant.top[i].predicted_ms)
        << "rank " << i;
  }
  ASSERT_EQ(fp64.top_unfiltered.size(), quant.top_unfiltered.size());
  for (std::size_t i = 0; i < fp64.top_unfiltered.size(); ++i) {
    EXPECT_EQ(fp64.top_unfiltered[i].index, quant.top_unfiltered[i].index);
    EXPECT_EQ(fp64.top_unfiltered[i].predicted_ms,
              quant.top_unfiltered[i].predicted_ms);
  }
}

class ScanQuantTest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_F(ScanQuantTest, TopMMatchesFp64AtOneAndFourThreads) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    model.set_scan_options(fp64_options());
    const auto fp64 = model.predict_scan_top_m(0, space.size(), 25);
    model.set_scan_options(int8_options());
    const auto quant = model.predict_scan_top_m(0, space.size(), 25);
    EXPECT_EQ(quant.scanned, space.size());
    EXPECT_GE(quant.fp64_reranked, 25u);
    EXPECT_EQ(quant.error_bound, ScanOptions{}.quant_error_bound);
    expect_same_selection(fp64, quant);
  }
}

TEST_F(ScanQuantTest, TopMMatchesFp64WithValidityFilter) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  // Reject every third index: exercises the filtered heap + re-rank path.
  const ScanFilter filter = [](std::uint64_t idx) { return idx % 3 != 0; };

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 20, filter);
  model.set_scan_options(int8_options());
  const auto quant = model.predict_scan_top_m(0, space.size(), 20, filter);
  expect_same_selection(fp64, quant);
  for (const auto& c : quant.top) EXPECT_NE(c.index % 3, 0u);
}

TEST_F(ScanQuantTest, QuantPathIsDeterministicAcrossThreadCounts) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(int8_options());

  common::set_global_pool_threads(1);
  const auto one = model.predict_scan_top_m(0, space.size(), 30);
  common::set_global_pool_threads(4);
  const auto four = model.predict_scan_top_m(0, space.size(), 30);
  ASSERT_EQ(one.top.size(), four.top.size());
  for (std::size_t i = 0; i < one.top.size(); ++i) {
    EXPECT_EQ(one.top[i].index, four.top[i].index);
    EXPECT_EQ(one.top[i].predicted_ms, four.top[i].predicted_ms);
  }
  EXPECT_EQ(one.fp64_reranked, four.fp64_reranked);
  EXPECT_EQ(one.near_ties, four.near_ties);
}

TEST_F(ScanQuantTest, AdversarialNearTieBandStillMatchesFp64Exactly) {
  // Inflating the assumed quantization error widens the re-rank band until
  // it provably captures crowds of near-ties around the cutoff; the
  // selection must still be exactly the fp64 one, and the widened band must
  // actually have been re-ranked (not silently truncated).
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 15);
  ScanOptions wide = int8_options();
  wide.quant_error_bound = 0.5;
  model.set_scan_options(wide);
  const auto quant = model.predict_scan_top_m(0, space.size(), 15);
  expect_same_selection(fp64, quant);
  EXPECT_GT(quant.near_ties, 0u);
  EXPECT_GE(quant.fp64_reranked, 15u + quant.near_ties);
}

TEST_F(ScanQuantTest, MeasuredQuantErrorHasTwoTimesMarginOnDeclaredBound) {
  // The exactness argument rests on |quant raw - fp64 raw| staying within
  // quant_error_bound; verify the measured error keeps a 2x margin on a
  // trained model, via logs of predicted times.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  const double scale = model.target_scale();

  const auto fp64 = model.predict_range_ms(0, 4096);
  const auto quant =
      model.predict_range_ms(0, 4096, ScanInference::kQuantInt8);
  double worst = 0.0;
  for (std::size_t i = 0; i < fp64.size(); ++i) {
    const double raw_err =
        std::fabs(std::log(quant[i]) - std::log(fp64[i])) / scale;
    worst = std::max(worst, raw_err);
  }
  EXPECT_LT(worst, 0.5 * ScanOptions{}.quant_error_bound);
}

TEST_F(ScanQuantTest, InputAwareQuantScanMatchesFp64) {
  // Input-aware models carry the instance features as fixed row tails; the
  // quantized engine sees them as degenerate [v, v] calibration ranges and
  // a new instance repacks the engine. The selection must track the fp64
  // reference for each instance.
  const ParamSpace space = testing::small_space();
  InputAwarePerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{16, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 200;
  InputAwarePerformanceModel model(opts);
  common::Rng rng(7);
  const std::vector<double> sizes = {64.0, 256.0, 1024.0};
  std::vector<InputAwareSample> samples;
  for (std::size_t i = 0; i < 400; ++i) {
    const Configuration c = space.random(rng);
    const double size =
        sizes[static_cast<std::size_t>(rng.below(sizes.size()))];
    const double a = std::log2(static_cast<double>(c.values[0]));
    const double b = std::log2(static_cast<double>(c.values[1]));
    const double shape =
        1.0 + (a - 3.0) * (a - 3.0) + 0.5 * (b - 4.0) * (b - 4.0);
    samples.push_back({c, ProblemInstance{{size}}, shape * size / 256.0});
  }
  model.fit(space, {"size"}, samples, rng);

  for (const double size : {64.0, 1024.0}) {
    const ProblemInstance instance{{size}};
    model.set_scan_options(fp64_options());
    const auto fp64 =
        model.predict_scan_top_m(0, space.size(), 10, instance);
    model.set_scan_options(int8_options());
    const auto quant =
        model.predict_scan_top_m(0, space.size(), 10, instance);
    expect_same_selection(fp64, quant);
    EXPECT_GT(quant.fp64_reranked, 0u);
  }
}

TEST_F(ScanQuantTest, QuantWithoutMatchingEngineThrows) {
  const ml::BaggingEnsemble unused;
  const ScanRowFiller fill = [](std::uint64_t, std::uint64_t, ml::Matrix&) {};
  const ScanOptions opts = int8_options();
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, nullptr),
               std::invalid_argument);
  const BatchedScan no_engine{};
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, &no_engine),
               std::invalid_argument);
  EXPECT_THROW((void)scan_predict_range(unused, fill, 0, 10, OutputTransform{},
                                        opts, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::tuner
