#include "tuner/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;
using testing::small_space;

AnnPerformanceModel::Options fast_options() {
  AnnPerformanceModel::Options o;
  o.ensemble.k = 3;
  o.ensemble.hidden_layers = {ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.ensemble.trainer.common.max_epochs = 300;
  o.ensemble.trainer.common.patience = 50;
  return o;
}

std::vector<TrainingSample> bowl_samples(std::size_t n, common::Rng& rng) {
  BowlEvaluator eval;
  std::vector<TrainingSample> samples;
  const ParamSpace& space = eval.space();
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), n);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, eval.measure(c).time_ms});
  }
  return samples;
}

TEST(Model, FitAndPredictLearnsBowl) {
  common::Rng rng(1);
  const auto samples = bowl_samples(180, rng);
  AnnPerformanceModel model(fast_options());
  model.fit(small_space(), samples, rng);
  ASSERT_TRUE(model.fitted());

  BowlEvaluator eval;
  std::vector<double> actual;
  std::vector<double> predicted;
  common::Rng test_rng(2);
  for (int i = 0; i < 50; ++i) {
    const Configuration c = eval.space().random(test_rng);
    actual.push_back(eval.measure(c).time_ms);
    predicted.push_back(model.predict_ms(c));
  }
  EXPECT_LT(ml::mean_relative_error(predicted, actual), 0.15);
}

TEST(Model, PredictBeforeFitThrows) {
  AnnPerformanceModel model(fast_options());
  EXPECT_THROW((void)model.predict_ms(Configuration{{1, 1, 0}}),
               std::logic_error);
  EXPECT_THROW((void)model.predict_range_ms(0, 10), std::logic_error);
}

TEST(Model, FitRejectsBadInput) {
  common::Rng rng(3);
  AnnPerformanceModel model(fast_options());
  EXPECT_THROW(model.fit(small_space(), {}, rng), std::invalid_argument);
  std::vector<TrainingSample> bad = {{Configuration{{1, 1, 0}}, -1.0}};
  EXPECT_THROW(model.fit(small_space(), bad, rng), std::invalid_argument);
}

TEST(Model, PredictionsArePositiveWithLogTargets) {
  common::Rng rng(4);
  const auto samples = bowl_samples(120, rng);
  AnnPerformanceModel model(fast_options());
  model.fit(small_space(), samples, rng);
  const auto preds = model.predict_range_ms(0, small_space().size());
  for (double p : preds) EXPECT_GT(p, 0.0);
}

TEST(Model, PredictRangeMatchesSinglePredictions) {
  common::Rng rng(5);
  const auto samples = bowl_samples(100, rng);
  AnnPerformanceModel model(fast_options());
  const ParamSpace space = small_space();
  model.fit(space, samples, rng);
  const auto range = model.predict_range_ms(10, 30);
  for (std::uint64_t i = 10; i < 30; ++i) {
    EXPECT_EQ(range[i - 10], model.predict_ms(space.decode(i)));
  }
}

TEST(Model, PredictManyMatchesSingle) {
  common::Rng rng(6);
  const auto samples = bowl_samples(100, rng);
  AnnPerformanceModel model(fast_options());
  const ParamSpace space = small_space();
  model.fit(space, samples, rng);
  std::vector<Configuration> configs = {space.decode(0), space.decode(99),
                                        space.decode(255)};
  const auto many = model.predict_many_ms(configs);
  ASSERT_EQ(many.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(many[i], model.predict_ms(configs[i]));
  EXPECT_TRUE(model.predict_many_ms({}).empty());
}

TEST(Model, Log2EncodingAppliedToWideDimensions) {
  AnnPerformanceModel::Options opts = fast_options();
  opts.encoding = FeatureEncoding::kLog2;
  AnnPerformanceModel model(opts);
  common::Rng rng(7);
  model.fit(small_space(), bowl_samples(64, rng), rng);
  // A and B span 1..128 (log2 applies); C is 0..3 (raw: contains 0).
  const auto f = model.encode_features(Configuration{{8, 128, 3}});
  ASSERT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f[0], 3.0);
  EXPECT_DOUBLE_EQ(f[1], 7.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
}

TEST(Model, RawEncodingKeepsValues) {
  AnnPerformanceModel::Options opts = fast_options();
  opts.encoding = FeatureEncoding::kRaw;
  AnnPerformanceModel model(opts);
  common::Rng rng(8);
  model.fit(small_space(), bowl_samples(64, rng), rng);
  const auto f = model.encode_features(Configuration{{8, 128, 3}});
  EXPECT_DOUBLE_EQ(f[0], 8.0);
  EXPECT_DOUBLE_EQ(f[1], 128.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
}

TEST(Model, PredictRangeValidation) {
  common::Rng rng(9);
  AnnPerformanceModel model(fast_options());
  model.fit(small_space(), bowl_samples(64, rng), rng);
  EXPECT_THROW((void)model.predict_range_ms(20, 10), std::invalid_argument);
  EXPECT_TRUE(model.predict_range_ms(5, 5).empty());
}

// The paper's log trick: with multiplicative noise, log targets give much
// better *relative* accuracy on small values than raw targets.
TEST(Model, LogTargetsBeatRawOnWideDynamicRange) {
  // Synthetic task with times spanning 4 orders of magnitude.
  ParamSpace space;
  space.add("X", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("Y", {1, 2, 4, 8, 16, 32, 64, 128});
  auto time_of = [](const Configuration& c) {
    const double x = std::log2(static_cast<double>(c.values[0]));
    const double y = std::log2(static_cast<double>(c.values[1]));
    return std::pow(10.0, (x + y) / 3.5 - 2.0);  // 0.01 .. ~100
  };
  common::Rng rng(10);
  std::vector<TrainingSample> samples;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration c = space.decode(i);
    samples.push_back({c, time_of(c)});
  }

  auto fit_and_score = [&](bool log_targets) {
    AnnPerformanceModel::Options opts = fast_options();
    opts.log_targets = log_targets;
    AnnPerformanceModel model(opts);
    common::Rng fit_rng(11);
    model.fit(space, samples, fit_rng);
    std::vector<double> actual;
    std::vector<double> predicted;
    for (const auto& s : samples) {
      actual.push_back(s.time_ms);
      predicted.push_back(model.predict_ms(s.config));
    }
    return ml::mean_relative_error(predicted, actual);
  };

  const double mre_log = fit_and_score(true);
  const double mre_raw = fit_and_score(false);
  EXPECT_LT(mre_log, mre_raw);
}

// ---- Parallel scan engine tests (chunked predict_range_ms and the
// ---- streaming predict_scan_top_m) on a space larger than one chunk.

/// 64 * 64 * 32 = 131072 configurations — two full scan chunks.
ParamSpace big_space() {
  auto values_up_to = [](int n) {
    std::vector<int> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 0);
    return v;
  };
  ParamSpace space;
  space.add("A", values_up_to(64));
  space.add("B", values_up_to(64));
  space.add("C", values_up_to(32));
  return space;
}

/// A cheap model (k=1, tiny net) fitted once on synthetic times from the
/// big space; shared by the scan tests below.
const AnnPerformanceModel& big_model() {
  static const AnnPerformanceModel model = [] {
    const ParamSpace space = big_space();
    common::Rng rng(21);
    std::vector<TrainingSample> samples;
    for (const auto idx : rng.sample_without_replacement(
             static_cast<std::size_t>(space.size()), 100)) {
      const Configuration c = space.decode(idx);
      const double t = 1.0 + 0.02 * c.values[0] + 0.05 * c.values[1] +
                       0.03 * c.values[2] +
                       0.4 * std::sin(0.2 * c.values[0]);
      samples.push_back({c, t});
    }
    AnnPerformanceModel::Options opts;
    opts.ensemble.k = 1;
    opts.ensemble.hidden_layers = {ml::LayerSpec{8, ml::Activation::kSigmoid}};
    opts.ensemble.trainer.common.max_epochs = 80;
    opts.ensemble.trainer.common.patience = 20;
    AnnPerformanceModel m(opts);
    m.fit(space, samples, rng);
    return m;
  }();
  return model;
}

/// Reference selection: full prediction vector, ranked by (time, index).
std::vector<std::uint64_t> reference_top_m(const std::vector<double>& preds,
                                           std::size_t m,
                                           std::uint64_t skip_every = 0) {
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < preds.size(); ++i) {
    if (skip_every != 0 && i % skip_every == 0) continue;
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (preds[a] != preds[b]) return preds[a] < preds[b];
              return a < b;
            });
  if (order.size() > m) order.resize(m);
  return order;
}

TEST(ModelScan, PredictRangeAgreesWithSingleAcrossChunkBoundaries) {
  const auto& model = big_model();
  const ParamSpace space = big_space();
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{65535},
                                std::uint64_t{65536}, std::uint64_t{65537}}) {
    const auto range = model.predict_range_ms(0, n);
    ASSERT_EQ(range.size(), n);
    // Boundaries of the chunking plus a stride through the interior.
    std::vector<std::uint64_t> probes = {0, n - 1};
    for (std::uint64_t i = 8191; i < n; i += 8191) probes.push_back(i);
    for (std::uint64_t i = scan_chunk_rows(n); i < n; i += scan_chunk_rows(n)) {
      probes.push_back(i - 1);
      probes.push_back(i);
    }
    for (const std::uint64_t i : probes) {
      EXPECT_EQ(range[i], model.predict_ms(space.decode(i)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(ModelScan, PredictRangeBitIdenticalAcrossThreadCounts) {
  const auto& model = big_model();
  common::set_global_pool_threads(1);
  const auto serial = model.predict_range_ms(0, 65537);
  common::set_global_pool_threads(4);
  const auto parallel = model.predict_range_ms(0, 65537);
  common::set_global_pool_threads(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "i=" << i;  // exact, not near
}

TEST(ModelScan, TopMMatchesFullVectorReference) {
  const auto& model = big_model();
  const std::uint64_t n = 70000;
  const std::size_t m = 50;
  const auto preds = model.predict_range_ms(0, n);
  const auto reference = reference_top_m(preds, m);
  const auto scan = model.predict_scan_top_m(0, n, m);
  EXPECT_EQ(scan.scanned, n);
  EXPECT_EQ(scan.rejected, 0u);
  ASSERT_EQ(scan.top.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(scan.top[i].index, reference[i]) << "rank " << i;
    EXPECT_DOUBLE_EQ(scan.top[i].predicted_ms, preds[reference[i]]);
  }
}

TEST(ModelScan, TopMWithFilterMatchesFilteredReference) {
  const auto& model = big_model();
  const std::uint64_t n = 70000;
  const std::size_t m = 40;
  const auto preds = model.predict_range_ms(0, n);
  const auto reference = reference_top_m(preds, m, /*skip_every=*/3);
  const auto scan = model.predict_scan_top_m(
      0, n, m, [](std::uint64_t index) { return index % 3 != 0; });
  ASSERT_EQ(scan.top.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(scan.top[i].index, reference[i]) << "rank " << i;
    EXPECT_NE(scan.top[i].index % 3, 0u);
  }
  EXPECT_GT(scan.rejected, 0u);
}

TEST(ModelScan, TopMBitIdenticalAcrossThreadCounts) {
  const auto& model = big_model();
  auto run = [&](std::size_t threads) {
    common::set_global_pool_threads(threads);
    return model.predict_scan_top_m(
        0, 70000, 30, [](std::uint64_t index) { return index % 5 != 0; });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  common::set_global_pool_threads(0);
  EXPECT_EQ(serial.rejected, parallel.rejected);
  ASSERT_EQ(serial.top.size(), parallel.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(serial.top[i].index, parallel.top[i].index);
    EXPECT_EQ(serial.top[i].predicted_ms, parallel.top[i].predicted_ms);
  }
}

TEST(ModelScan, TopMEdgeCases) {
  const auto& model = big_model();
  // m larger than the range: every index, ranked.
  const auto all = model.predict_scan_top_m(0, 10, 20);
  EXPECT_EQ(all.top.size(), 10u);
  for (std::size_t i = 1; i < all.top.size(); ++i)
    EXPECT_LE(all.top[i - 1].predicted_ms, all.top[i].predicted_ms);
  // m == 0 and empty ranges are empty results, not errors.
  EXPECT_TRUE(model.predict_scan_top_m(0, 10, 0).top.empty());
  EXPECT_TRUE(model.predict_scan_top_m(5, 5, 3).top.empty());
  EXPECT_THROW((void)model.predict_scan_top_m(7, 3, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::tuner
