#include "tuner/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ml/metrics.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::small_space;

/// Synthetic family: time scales linearly with problem "size" and has the
/// bowl structure in the configuration — separable and learnable.
double family_time(const Configuration& c, double size) {
  const double a = std::log2(static_cast<double>(c.values[0]));
  const double b = std::log2(static_cast<double>(c.values[1]));
  const double shape =
      1.0 + (a - 3.0) * (a - 3.0) + 0.5 * (b - 4.0) * (b - 4.0);
  return shape * size / 256.0;
}

AnnPerformanceModel::Options fast_options() {
  AnnPerformanceModel::Options o;
  o.ensemble.k = 3;
  o.ensemble.hidden_layers = {ml::LayerSpec{16, ml::Activation::kSigmoid}};
  o.ensemble.trainer.common.max_epochs = 400;
  return o;
}

std::vector<TrainingSample> family_samples(
    const ParamSpace& space, const std::vector<double>& sizes, std::size_t n,
    common::Rng& rng) {
  std::vector<TrainingSample> samples;
  for (std::size_t i = 0; i < n; ++i) {
    const Configuration c = space.random(rng);
    const double size =
        sizes[static_cast<std::size_t>(rng.below(sizes.size()))];
    samples.push_back({c, family_time(c, size), ProblemInstance{{size}}});
  }
  return samples;
}

TEST(InputAwareModel, FitRejectsBadInput) {
  AnnPerformanceModel model(fast_options());
  common::Rng rng(1);
  EXPECT_THROW(model.fit(small_space(), {}, rng), std::invalid_argument);
  std::vector<TrainingSample> bad = {
      {Configuration{{1, 1, 0}}, -2.0, ProblemInstance{{256.0}}}};
  EXPECT_THROW(model.fit(small_space(), bad, rng), std::invalid_argument);
}

TEST(InputAwareModel, PredictBeforeFitThrows) {
  const AnnPerformanceModel model(fast_options());
  EXPECT_THROW(
      (void)model.predict_ms(Configuration{{1, 1, 0}}, ProblemInstance{{1.0}}),
      std::logic_error);
}

TEST(InputAwareModel, InstanceWidthChecked) {
  AnnPerformanceModel model(fast_options());
  common::Rng rng(2);
  const ParamSpace space = small_space();
  model.fit(space, family_samples(space, {128.0, 256.0}, 150, rng), rng);
  EXPECT_THROW((void)model.predict_ms(space.decode(0),
                                      ProblemInstance{{1.0, 2.0}}),
               std::invalid_argument);
}

TEST(InputAwareModel, LearnsTheSeenSizes) {
  common::Rng rng(3);
  const ParamSpace space = small_space();
  const std::vector<double> sizes = {128.0, 256.0, 512.0, 1024.0};
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, sizes, 600, rng), rng);

  std::vector<double> actual;
  std::vector<double> predicted;
  for (int i = 0; i < 80; ++i) {
    const Configuration c = space.random(rng);
    const double size =
        sizes[static_cast<std::size_t>(rng.below(sizes.size()))];
    actual.push_back(family_time(c, size));
    predicted.push_back(model.predict_ms(c, ProblemInstance{{size}}));
  }
  EXPECT_LT(ml::mean_relative_error(predicted, actual), 0.25);
}

TEST(InputAwareModel, InterpolatesToUnseenSize) {
  // Train at 128/256/1024, test at the held-out 512.
  common::Rng rng(4);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, {128.0, 256.0, 1024.0}, 900, rng),
            rng);

  std::vector<double> actual;
  std::vector<double> predicted;
  for (int i = 0; i < 80; ++i) {
    const Configuration c = space.random(rng);
    actual.push_back(family_time(c, 512.0));
    predicted.push_back(model.predict_ms(c, ProblemInstance{{512.0}}));
  }
  EXPECT_LT(ml::mean_relative_error(predicted, actual), 0.40);
}

TEST(InputAwareModel, PredictManyMatchesSingle) {
  common::Rng rng(5);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, {128.0, 256.0}, 200, rng), rng);
  const std::vector<Configuration> configs = {space.decode(3),
                                              space.decode(77)};
  const ProblemInstance inst{{256.0}};
  const auto many = model.predict_many_ms(configs, inst);
  ASSERT_EQ(many.size(), 2u);
  EXPECT_EQ(many[0], model.predict_ms(configs[0], inst));
  EXPECT_EQ(many[1], model.predict_ms(configs[1], inst));
}

TEST(InputAwareModel, EncodingLayout) {
  common::Rng rng(6);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, {128.0}, 60, rng), rng);
  const auto features = model.encode_features(Configuration{{8, 128, 3}},
                                              ProblemInstance{{1024.0}});
  ASSERT_EQ(features.size(), 4u);  // 3 config dims + 1 problem param
  EXPECT_DOUBLE_EQ(features[0], 3.0);   // log2(8)
  EXPECT_DOUBLE_EQ(features[1], 7.0);   // log2(128)
  EXPECT_DOUBLE_EQ(features[2], 3.0);   // raw (0..3 range)
  EXPECT_DOUBLE_EQ(features[3], 10.0);  // log2(1024)
}

TEST(InputAwareModel, PredictRangeMatchesSingle) {
  common::Rng rng(8);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, {128.0, 256.0}, 200, rng), rng);
  const ProblemInstance inst{{256.0}};
  const auto range = model.scan_engine(inst).reference_range(10, 40);
  ASSERT_EQ(range.size(), 30u);
  for (std::uint64_t i = 10; i < 40; i += 7) {
    EXPECT_EQ(range[i - 10], model.predict_ms(space.decode(i), inst));
  }
}

TEST(InputAwareModel, ScanTopMMatchesFullRanking) {
  common::Rng rng(9);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  model.fit(space, family_samples(space, {128.0, 256.0, 512.0}, 300, rng),
            rng);
  const ProblemInstance inst{{512.0}};
  const auto preds = model.scan_engine(inst).reference_range(0, space.size());
  std::vector<std::uint64_t> order(preds.size());
  for (std::uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (preds[a] != preds[b]) return preds[a] < preds[b];
              return a < b;
            });
  const std::size_t m = 20;
  const auto scan = model.scan_engine(inst).top_m(0, space.size(), m);
  ASSERT_EQ(scan.top.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(scan.top[i].index, order[i]) << "rank " << i;
    EXPECT_DOUBLE_EQ(scan.top[i].predicted_ms, preds[order[i]]);
  }
}

TEST(InputAwareModel, NonPositiveProblemParamRejectedWithLog2) {
  common::Rng rng(7);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  std::vector<TrainingSample> samples = {
      {space.decode(0), 1.0, ProblemInstance{{0.0}}}};
  EXPECT_THROW(model.fit(space, samples, rng), std::invalid_argument);
}

TEST(InputAwareModel, EveryEntryPointChecksTheInstanceWidth) {
  common::Rng rng(10);
  const ParamSpace space = small_space();
  AnnPerformanceModel model(fast_options());
  std::vector<TrainingSample> mixed = family_samples(space, {128.0}, 20, rng);
  mixed.push_back({space.decode(1), 1.0});
  EXPECT_THROW(model.fit(space, mixed, rng), std::invalid_argument);

  model.fit(space, family_samples(space, {128.0, 256.0}, 60, rng), rng);
  EXPECT_EQ(model.problem_parameters(), 1u);
  const Configuration c = space.decode(7);
  const ProblemInstance wide{{1.0, 2.0}};
  EXPECT_THROW((void)model.encode_features(c), std::invalid_argument);
  EXPECT_THROW((void)model.predict_ms(c), std::invalid_argument);
  EXPECT_THROW((void)model.predict_many_ms({c}, wide), std::invalid_argument);
  EXPECT_THROW((void)model.scan_engine(wide), std::invalid_argument);
  EXPECT_THROW((void)model.scan_engine().reference_range(0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)model.predict_scan_top_m(0, 4, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::tuner
