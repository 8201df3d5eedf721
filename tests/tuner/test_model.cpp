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
  EXPECT_THROW((void)model.scan_engine(), std::logic_error);
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
  const auto preds =
      model.scan_engine().reference_range(0, small_space().size());
  for (double p : preds) EXPECT_GT(p, 0.0);
}

TEST(Model, PredictRangeMatchesSinglePredictions) {
  common::Rng rng(5);
  const auto samples = bowl_samples(100, rng);
  AnnPerformanceModel model(fast_options());
  const ParamSpace space = small_space();
  model.fit(space, samples, rng);
  const auto range = model.scan_engine().reference_range(10, 30);
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
  EXPECT_THROW((void)model.scan_engine().reference_range(20, 10),
               std::invalid_argument);
  EXPECT_TRUE(model.scan_engine().reference_range(5, 5).empty());
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

// ---- Parallel scan engine tests (the chunked fp64 reference range and the
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
    const auto range = model.scan_engine().reference_range(0, n);
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
  const auto serial = model.scan_engine().reference_range(0, 65537);
  common::set_global_pool_threads(4);
  const auto parallel = model.scan_engine().reference_range(0, 65537);
  common::set_global_pool_threads(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << "i=" << i;  // exact, not near
}

TEST(ModelScan, TopMMatchesFullVectorReference) {
  const auto& model = big_model();
  const std::uint64_t n = 70000;
  const std::size_t m = 50;
  const auto preds = model.scan_engine().reference_range(0, n);
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
  const auto preds = model.scan_engine().reference_range(0, n);
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

std::vector<std::uint64_t> top_indices(const TopMScanResult& scan) {
  std::vector<std::uint64_t> out;
  for (const ScanCandidate& c : scan.top) out.push_back(c.index);
  return out;
}

std::vector<double> top_times(const TopMScanResult& scan) {
  std::vector<double> out;
  for (const ScanCandidate& c : scan.top) out.push_back(c.predicted_ms);
  return out;
}

// A fitted model without and with a problem parameter, pinned as hex floats
// recorded from the AVX-512 build. Every training time is single operations
// or written fmas, so no build can contract it; every SIMD backend must give
// these bits.
TEST(Model, FittedModelKeepsItsBits) {
  const ParamSpace space = small_space();
  common::Rng rng(2025);
  const std::vector<double> sizes = {128.0, 256.0, 512.0, 1024.0};
  std::vector<TrainingSample> plain;
  std::vector<TrainingSample> sized;
  for (int i = 0; i < 120; ++i) {
    const Configuration c = space.random(rng);
    const double da = std::log2(static_cast<double>(c.values[0])) - 3.0;
    const double db = std::log2(static_cast<double>(c.values[1])) - 4.0;
    const double dc = static_cast<double>(c.values[2]) - 2.0;
    const double t = std::fma(
        da, da,
        std::fma(db, db,
                 std::fma(0.5 * dc, dc, std::fma(0.25, rng.uniform(), 1.0))));
    const double size = sizes[rng.below(sizes.size())];
    plain.push_back({c, t});
    sized.push_back({c, t * size / 256.0, ProblemInstance{{size}}});
  }
  AnnPerformanceModel model(fast_options());
  model.fit(space, plain, rng);
  AnnPerformanceModel aware(fast_options());
  aware.fit(space, sized, rng);

  const Configuration c0 = space.decode(0);
  const Configuration c77 = space.decode(77);
  const Configuration c200 = space.decode(200);
  const std::vector<Configuration> many = {space.decode(5), space.decode(130),
                                           space.decode(255)};

  EXPECT_EQ(model.predict_ms(c0), 0x1.e1d4a3632224fp+4);
  EXPECT_EQ(model.predict_ms(c77), 0x1.ca09d05a3c6c7p+3);
  EXPECT_EQ(model.predict_ms(c200), 0x1.4e1cab6c18bfdp+4);
  EXPECT_EQ(model.predict_many_ms(many),
            (std::vector<double>{0x1.292f6346696b6p+4, 0x1.0ed25bdd7da83p+4,
                                 0x1.59ced2f6e4b29p+4}));
  const TopMScanResult top = model.scan_engine().top_m(0, space.size(), 4);
  EXPECT_EQ(top_indices(top), (std::vector<std::uint64_t>{163, 155, 164, 162}));
  EXPECT_EQ(top_times(top),
            (std::vector<double>{0x1.8ea7adfcb8d9fp+0, 0x1.ff27261f9bb31p+0,
                                 0x1.10fae08b17dedp+1, 0x1.1a7ebdef7fd89p+1}));

  const ProblemInstance seen{{256.0}};
  const ProblemInstance unseen{{768.0}};
  EXPECT_EQ(aware.predict_ms(c0, seen), 0x1.a4788e37710fp+4);
  EXPECT_EQ(aware.predict_ms(c77, seen), 0x1.8df18e83c1277p+3);
  EXPECT_EQ(aware.predict_ms(c200, seen), 0x1.1ad987988356bp+4);
  EXPECT_EQ(aware.predict_ms(c0, unseen), 0x1.c03cd4891cde4p+5);
  EXPECT_EQ(aware.predict_ms(c77, unseen), 0x1.b97dfd3a5be95p+5);
  EXPECT_EQ(aware.predict_ms(c200, unseen), 0x1.c361ea2894939p+5);
  EXPECT_EQ(aware.predict_many_ms(many, unseen),
            (std::vector<double>{0x1.4fc7738ce8f0dp+6, 0x1.b82cceeff21afp+5,
                                 0x1.aed8aeef55b99p+5}));
  const TopMScanResult aware_top =
      aware.scan_engine(unseen).top_m(0, space.size(), 4);
  EXPECT_EQ(top_indices(aware_top),
            (std::vector<std::uint64_t>{227, 228, 163, 164}));
  EXPECT_EQ(top_times(aware_top),
            (std::vector<double>{0x1.1dea2be1115e3p+3, 0x1.1fc7e180f4bc5p+3,
                                 0x1.20a92480fd181p+3, 0x1.238d2483b6491p+3}));
}

// y * scale + mean is rounded once: for these inputs rounding the product
// first gives another value (…dc8p+1 and …eaap+7 below), which a backend
// without FMA hardware would print.
TEST(OutputTransform, KeepsItsBitsOnEveryBackend) {
  const OutputTransform linear{0x1.34f702p+0, 0x1.fb1f24p+0, false};
  EXPECT_EQ(linear(0x1.be4555eap-1), 0x1.843612effddc7p+1);
  const OutputTransform logs{0x1.2b36588p+0, 0x1.e469dbp+1, true};
  EXPECT_EQ(logs(0x1.663b465dp+0), 0x1.c3c5694c62eaap+7);
}

// A refit that throws must leave the previous fit whole: its space, its
// ensemble and its output transform, and the scans built from them.
TEST(Model, FailedRefitKeepsThePreviousFit) {
  ParamSpace space;
  space.add("X", {1, 2, 4, 8, 16});
  space.add("Y", {0, 1, 2, 3});
  std::vector<TrainingSample> samples;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const Configuration c = space.decode(i);
    samples.push_back({c, 1.0 + 0.1 * c.values[0] + 0.5 * c.values[1]});
  }
  common::Rng rng(12);
  AnnPerformanceModel model(fast_options());
  model.fit(space, samples, rng);
  const Configuration probe = space.decode(7);
  const double predicted = model.predict_ms(probe);
  const TopMScanResult top = model.scan_engine().top_m(0, space.size(), 3);

  ParamSpace narrow;
  narrow.add("X", {1, 2, 4});
  const std::vector<TrainingSample> negative_time = {
      {Configuration{{2}}, -1.0}};
  EXPECT_THROW(model.fit(narrow, negative_time, rng), std::invalid_argument);
  const std::vector<TrainingSample> ragged = {
      {Configuration{{2}}, 1.0},
      {Configuration{{4}}, 2.0, ProblemInstance{{64.0}}}};
  EXPECT_THROW(model.fit(narrow, ragged, rng), std::invalid_argument);

  EXPECT_EQ(model.space().dimension_count(), 2u);
  EXPECT_EQ(model.predict_ms(probe), predicted);
  const TopMScanResult again = model.scan_engine().top_m(0, space.size(), 3);
  EXPECT_EQ(top_indices(again), top_indices(top));
  EXPECT_EQ(top_times(again), top_times(top));
}

}  // namespace
}  // namespace pt::tuner
