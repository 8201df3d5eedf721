#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace pt::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
  EXPECT_THROW((void)geometric_mean(std::vector<double>{1.0, -1.0}),
               std::domain_error);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsBadInput) {
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
  EXPECT_THROW((void)median(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, MedianIgnoresOutliers) {
  // The robust-aggregation use case: one straggler cannot move the median.
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 5.1, 4.9, 5.0, 500.0}),
                   5.0);
}

TEST(Stats, TrimmedMeanHandComputed) {
  const std::vector<double> xs = {10.0, 2.0, 8.0, 4.0, 100.0};
  // Sorted {2,4,8,10,100}; floor(0.2*5)=1 cut per side: mean(4,8,10).
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.2), 22.0 / 3.0);
}

TEST(Stats, TrimmedMeanZeroFractionIsPlainMean) {
  const std::vector<double> xs = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.0), 3.0);
}

TEST(Stats, TrimmedMeanSmallSampleCutsNothing) {
  // floor(0.2 * 3) == 0: nothing is trimmed, plain mean again.
  const std::vector<double> xs = {1.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.2), 4.0);
}

TEST(Stats, TrimmedMeanRejectsBadInput) {
  EXPECT_THROW((void)trimmed_mean(std::vector<double>{}, 0.1),
               std::invalid_argument);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW((void)trimmed_mean(xs, 0.5), std::invalid_argument);
  EXPECT_THROW((void)trimmed_mean(xs, -0.1), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

// Recorded from the AVX-512 build. Its quantile fuses the lower term onto
// the rounded upper one; its pearson rounds the products of each pair of rows
// (vectorised) and fuses only a last, unpaired row. Each value below differs
// from the other rounding, so the scalar build must follow the written fmas.
TEST(Stats, QuantileKeepsItsBitsOnEveryBackend) {
  const std::vector<double> xs = {0x1.06bb245aa8cf1p+3, 0x1.8304800a5e17ep+2,
                                  0x1.7ef9e044e1276p+2, 0x1.2de990f47cb2ep+3,
                                  0x1.fabba80836cdep+1};
  EXPECT_EQ(quantile(xs, 0.3), 0x1.7fc8cd05fa244p+2);
  EXPECT_EQ(quantile(xs, 0.6), 0x1.ba6536b525e73p+2);
  EXPECT_EQ(quantile(xs, 0.9), 0x1.1e3d6583c18afp+3);
}

TEST(Stats, PearsonKeepsItsBitsOnEveryBackend) {
  // Seven rows: the last one is fused (unfused: ...937p-1).
  const std::vector<double> xs7 = {
      0x1.c625f3f40a44fp+2, 0x1.01b7d4c843e8cp+3, 0x1.b92ac6db4a537p+2,
      0x1.c15381dc679cp+1,  0x1.2cce1513427ebp+3, 0x1.c4802ed42ffcap+2,
      0x1.b6a66c326d617p+1};
  const std::vector<double> ys7 = {
      0x1.204237c7c819p+1,  0x1.849b5d62d6befp+1, 0x1.508a48d357e38p+1,
      0x1.8618878255b68p+0, 0x1.73b871b3b624fp+1, 0x1.6594234ac3ed5p+1,
      0x1.45a2c0247fe38p+0};
  EXPECT_EQ(pearson(xs7, ys7), 0x1.dff999e4d2939p-1);
  // Six rows: none is fused (every row fused: ...d67p-1).
  const std::vector<double> xs6 = {
      0x1.05941a8896982p+0, 0x1.d6f1a0d601356p+0, 0x1.b722c5b370a45p+2,
      0x1.9e28fa8bd735ep+2, 0x1.85b855fb7877bp+2, 0x1.dd30722aaf1b7p+2};
  const std::vector<double> ys6 = {
      0x1.0834bb6bd4e84p+0, 0x1.4cbbbb70d1964p+0, 0x1.25b0144712aaap+1,
      0x1.1488e5ecf3393p+1, 0x1.49b7f46b9709ep+1, 0x1.4bcfaff89856bp+1};
  EXPECT_EQ(pearson(xs6, ys6), 0x1.ed44a33b00d6bp-1);
}

TEST(Stats, SizeMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW((void)pearson(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace pt::common
