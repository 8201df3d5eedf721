#include "ml/ensemble.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/thread_pool.hpp"

namespace pt::ml {
namespace {

Dataset make_regression(std::size_t n, common::Rng& rng) {
  Dataset d;
  d.x = Matrix(n, 3);
  d.y = Matrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(0.0, 4.0);
    const double c = rng.uniform(-1.0, 1.0);
    d.x(i, 0) = a;
    d.x(i, 1) = b;
    d.x(i, 2) = c;
    d.y(i, 0) = 0.5 * a + std::sin(b) - c * c;
  }
  return d;
}

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot.
double coefficient_of_determination(std::span<const double> predicted,
                                    std::span<const double> actual) {
  double mean_actual = 0.0;
  for (const double a : actual) mean_actual += a;
  mean_actual /= static_cast<double>(actual.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - mean_actual) * (actual[i] - mean_actual);
  }
  return 1.0 - ss_res / ss_tot;
}

BaggingEnsemble::Options fast_options(std::size_t k) {
  BaggingEnsemble::Options o;
  o.k = k;
  o.hidden_layers = {LayerSpec{12, Activation::kSigmoid}};
  o.trainer.common.max_epochs = 300;
  o.trainer.common.patience = 40;
  return o;
}

TEST(Ensemble, ConstructionValidation) {
  BaggingEnsemble::Options o;
  o.k = 0;
  EXPECT_THROW(BaggingEnsemble{o}, std::invalid_argument);
  BaggingEnsemble::Options o2;
  o2.hidden_layers.clear();
  EXPECT_THROW(BaggingEnsemble{o2}, std::invalid_argument);
}

TEST(Ensemble, ConstructorAndRestoreRejectOtherShapes) {
  StandardScaler scaler;
  scaler.restore({0.0, 0.0}, {1.0, 1.0});
  // No hidden layer, two hidden layers, one linear hidden layer.
  for (const std::vector<LayerSpec>& hidden :
       {std::vector<LayerSpec>{},
        {{12, Activation::kSigmoid}, {6, Activation::kSigmoid}},
        {{12, Activation::kLinear}}}) {
    BaggingEnsemble::Options o = fast_options(2);
    o.hidden_layers = hidden;
    EXPECT_THROW(BaggingEnsemble{o}, std::invalid_argument) << hidden.size();
    std::vector<Member> members;
    members.emplace_back(2, 3);
    BaggingEnsemble e(fast_options(2));
    EXPECT_THROW(e.restore(o, scaler, members), std::invalid_argument);
    e.restore(fast_options(2), scaler, std::move(members));  // any width
    EXPECT_TRUE(e.fitted());
  }
}

TEST(Ensemble, DefaultsMatchPaper) {
  const BaggingEnsemble e;
  EXPECT_EQ(e.options().k, 11u);  // paper's bagging size
  ASSERT_EQ(e.options().hidden_layers.size(), 1u);
  EXPECT_EQ(e.options().hidden_layers[0].units, 30u);  // paper's topology
  EXPECT_EQ(e.options().hidden_layers[0].activation, Activation::kSigmoid);
}

TEST(Ensemble, PredictBeforeFitThrows) {
  const BaggingEnsemble e(fast_options(3));
  EXPECT_THROW((void)e.predict(std::vector<double>{1.0, 2.0, 3.0}),
               std::logic_error);
  EXPECT_THROW((void)e.predict_batch(Matrix(1, 3)), std::logic_error);
}

TEST(Ensemble, FitsAndGeneralizes) {
  common::Rng rng(10);
  const Dataset train = make_regression(500, rng);
  const Dataset test = make_regression(150, rng);
  BaggingEnsemble e(fast_options(5));
  e.fit(train, rng);
  ASSERT_TRUE(e.fitted());
  EXPECT_EQ(e.member_count(), 5u);

  std::vector<double> actual;
  for (std::size_t i = 0; i < test.size(); ++i) actual.push_back(test.y(i, 0));
  const auto predicted = e.predict_batch(test.x);
  EXPECT_GT(coefficient_of_determination(predicted, actual), 0.9);
}

TEST(Ensemble, SinglePredictionMatchesBatch) {
  common::Rng rng(11);
  const Dataset train = make_regression(200, rng);
  BaggingEnsemble e(fast_options(3));
  e.fit(train, rng);
  const auto batch = e.predict_batch(train.x);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(e.predict(train.x.row(i)), batch[i]);  // exact
  }
}

TEST(Ensemble, MeanOfMemberPredictions) {
  common::Rng rng(12);
  const Dataset train = make_regression(150, rng);
  BaggingEnsemble e(fast_options(4));
  e.fit(train, rng);
  const auto row = train.x.row(0);
  const auto members = e.member_predictions(row);
  ASSERT_EQ(members.size(), 4u);
  double mean = 0.0;
  for (double m : members) mean += m;
  mean /= 4.0;
  EXPECT_NEAR(e.predict(row), mean, 1e-12);
}

TEST(Ensemble, SpreadIsNonNegativeAndSane) {
  common::Rng rng(13);
  const Dataset train = make_regression(150, rng);
  BaggingEnsemble e(fast_options(4));
  e.fit(train, rng);
  const double spread = e.predictive_spread(train.x.row(0));
  EXPECT_GE(spread, 0.0);
  EXPECT_LT(spread, 10.0);
}

TEST(Ensemble, KClampedToDatasetSize) {
  common::Rng rng(14);
  const Dataset train = make_regression(6, rng);
  BaggingEnsemble e(fast_options(11));
  e.fit(train, rng);
  EXPECT_LE(e.member_count(), 6u);
}

TEST(Ensemble, KOneTrainsOnAllData) {
  common::Rng rng(15);
  const Dataset train = make_regression(100, rng);
  BaggingEnsemble e(fast_options(1));
  e.fit(train, rng);
  EXPECT_EQ(e.member_count(), 1u);
  EXPECT_NO_THROW((void)e.predict(train.x.row(0)));
}

TEST(Ensemble, RejectsEmptyOrMultiTarget) {
  common::Rng rng(16);
  BaggingEnsemble e(fast_options(3));
  Dataset empty;
  EXPECT_THROW(e.fit(empty, rng), std::invalid_argument);
  Dataset multi;
  multi.x = Matrix(10, 2);
  multi.y = Matrix(10, 2);
  EXPECT_THROW(e.fit(multi, rng), std::invalid_argument);
}

TEST(Ensemble, RefitReplacesState) {
  common::Rng rng(17);
  const Dataset train = make_regression(100, rng);
  BaggingEnsemble e(fast_options(2));
  e.fit(train, rng);
  const double first = e.predict(train.x.row(0));
  e.fit(train, rng);  // different random folds/weights
  EXPECT_EQ(e.member_count(), 2u);
  // Predictions should be similar but the state is genuinely new.
  EXPECT_NO_THROW((void)e.predict(train.x.row(0)));
  (void)first;
}

// Parallel bagging must be bit-identical regardless of the pool size: all
// randomness (fold split, per-member RNGs) is drawn before dispatch.
TEST(Ensemble, FitIsBitIdenticalAcrossThreadCounts) {
  common::Rng data_rng(18);
  const Dataset train = make_regression(160, data_rng);

  auto fit_with_threads = [&](std::size_t threads) {
    common::set_global_pool_threads(threads);
    BaggingEnsemble e(fast_options(4));
    common::Rng rng(42);
    e.fit(train, rng);
    return e.predict_batch(train.x);
  };

  const auto serial = fit_with_threads(1);
  const auto parallel = fit_with_threads(4);
  common::set_global_pool_threads(0);  // restore the default

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "row " << i;  // exact, not near
  }
}

TEST(Ensemble, PredictBatchIntoMatchesPredictBatch) {
  common::Rng rng(19);
  const Dataset train = make_regression(120, rng);
  BaggingEnsemble e(fast_options(3));
  e.fit(train, rng);
  const auto reference = e.predict_batch(train.x);
  std::vector<double> out;
  BaggingEnsemble::PredictScratch scratch;
  e.predict_batch_into(train.x, out, scratch);
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], reference[i]);
  // Reusing the same scratch must give the same answer again.
  e.predict_batch_into(train.x, out, scratch);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], reference[i]);
}

TEST(Ensemble, RestoreValidation) {
  BaggingEnsemble e(fast_options(2));
  StandardScaler scaler;
  scaler.restore({0.0, 0.0}, {1.0, 1.0});
  EXPECT_THROW(e.restore(fast_options(2), scaler, {}),
               std::invalid_argument);
  // Width mismatch between scaler and member.
  std::vector<Member> members;
  members.emplace_back(3, 2);
  EXPECT_THROW(e.restore(fast_options(2), scaler, std::move(members)),
               std::invalid_argument);
}

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, std::span<const double> values) {
  for (const double v : values) {
    std::uint64_t b = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash ^= b & 0xffu;
      hash *= 0x100000001b3u;
      b >>= 8;
    }
  }
  return hash;
}

// A fitted ensemble's bits, recorded from the AVX2 build: every trained
// parameter (as a hash, member by member: W1 row by row, b1, w2, b2), the
// scaler and a few predictions. The initial draws, the fit and the fp64
// inference all show here; the data are make_regression's with every
// multiply-add written as an fma, so they are the same bits on every
// backend too.
TEST(Ensemble, FittedEnsembleKeepsItsBits) {
  common::Rng rng(2024);
  Dataset d{Matrix(150, 3), Matrix(150, 1)};
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double a = std::fma(4.0, rng.uniform(), -2.0);
    const double b = std::fma(4.0, rng.uniform(), 0.0);
    const double c = std::fma(2.0, rng.uniform(), -1.0);
    d.x(i, 0) = a;
    d.x(i, 1) = b;
    d.x(i, 2) = c;
    d.y(i, 0) = std::fma(-c, c, std::fma(0.5, a, std::sin(b)));
  }
  BaggingEnsemble e(fast_options(3));
  e.fit(d, rng);

  std::uint64_t hash = 0xcbf29ce484222325u;
  for (std::size_t i = 0; i < e.member_count(); ++i) {
    const Member& m = e.member(i);
    for (std::size_t k = 0; k < m.inputs(); ++k) hash = fnv1a(hash, m.w1(k));
    hash = fnv1a(hash, m.b1());
    hash = fnv1a(hash, m.w2());
    const double b2 = m.b2();
    hash = fnv1a(hash, std::span<const double>(&b2, 1));
  }
  EXPECT_EQ(hash, 0x1e48291ae388a0d7u);
  const std::vector<double> means = {0x1.538e24c58b5e5p-8,
                                     0x1.c64f7189c48c6p+0,
                                     -0x1.8b78d7d4522d4p-11};
  const std::vector<double> stddevs = {
      0x1.374531663e1f4p+0, 0x1.1bcd090319006p+0, 0x1.0e264b2946796p-1};
  EXPECT_EQ(e.scaler().means(), means);
  EXPECT_EQ(e.scaler().stddevs(), stddevs);

  const std::vector<double> x0 = {0.5, 1.0, -0.25};
  const std::vector<double> x1 = {-1.75, 3.5, 0.8};
  const std::vector<double> x2 = {1.2, 0.1, 0.0};
  EXPECT_EQ(e.predict(x0), 0x1.0b808465fb182p+0);
  EXPECT_EQ(e.predict(x1), -0x1.d2e2909119fb9p+0);
  EXPECT_EQ(e.predict(x2), 0x1.791d52cca9295p-1);
  const std::vector<double> members = {
      -0x1.c916671c4d111p+0, -0x1.d981dd2233f28p+0, -0x1.d60f6d74ccef5p+0};
  EXPECT_EQ(e.member_predictions(x1), members);
  const std::vector<double> batch = e.predict_batch(d.x);
  EXPECT_EQ(batch[0], -0x1.a65110b314f28p+0);
  EXPECT_EQ(batch[149], 0x1.6e6e4436a5f21p+0);
}

}  // namespace
}  // namespace pt::ml
