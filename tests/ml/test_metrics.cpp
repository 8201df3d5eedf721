#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pt::ml {
namespace {

TEST(Metrics, PerfectPredictionIsZeroError) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_relative_error(v, v), 0.0);
}

TEST(Metrics, MeanRelativeErrorKnownValue) {
  const std::vector<double> p = {11.0, 90.0};
  const std::vector<double> a = {10.0, 100.0};
  // |1|/10 + |10|/100 over 2 = (0.1 + 0.1)/2
  EXPECT_DOUBLE_EQ(mean_relative_error(p, a), 0.1);
}

TEST(Metrics, MeanRelativeErrorScaleInvariant) {
  const std::vector<double> p = {1.1, 2.2};
  const std::vector<double> a = {1.0, 2.0};
  std::vector<double> p1000 = {1100.0, 2200.0};
  std::vector<double> a1000 = {1000.0, 2000.0};
  EXPECT_NEAR(mean_relative_error(p, a),
              mean_relative_error(p1000, a1000), 1e-12);
}

TEST(Metrics, MeanRelativeErrorZeroActualThrows) {
  const std::vector<double> p = {1.0};
  const std::vector<double> a = {0.0};
  EXPECT_THROW((void)mean_relative_error(p, a), std::domain_error);
}

TEST(Metrics, InputValidation) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  const std::vector<double> empty;
  EXPECT_THROW((void)mean_relative_error(a, b), std::invalid_argument);
  EXPECT_THROW((void)mean_relative_error(empty, empty), std::invalid_argument);
}

}  // namespace
}  // namespace pt::ml
