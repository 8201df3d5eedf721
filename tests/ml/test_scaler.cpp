#include "ml/scaler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace pt::ml {
namespace {

TEST(StandardScaler, TransformsToZeroMeanUnitVar) {
  Matrix x = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}, {4.0, 40.0}};
  StandardScaler s;
  s.fit(x);
  const Matrix t = s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sq = 0.0;
    for (std::size_t r = 0; r < t.rows(); ++r) {
      sum += t(r, c);
      sq += t(r, c) * t(r, c);
    }
    EXPECT_NEAR(sum / t.rows(), 0.0, 1e-12);
    EXPECT_NEAR(sq / t.rows(), 1.0, 1e-12);  // population variance
  }
}

// fit's means and stddevs, recorded from the AVX2 build as hex floats. Its
// variance sum adds each square as one fma; a sum that rounds d * d before
// the add gives other stddevs in columns 1 and 2. The inputs are written
// as fmas too, so they are the same on every backend.
TEST(StandardScaler, FitKeepsItsBitsOnEveryBackend) {
  common::Rng rng(77);
  Matrix x(41, 6);
  for (auto& v : x.flat()) v = std::fma(14.0, rng.uniform(), -3.0);
  StandardScaler s;
  s.fit(x);
  const std::vector<double> means = {
      0x1.ab546bccb00bbp+1, 0x1.9008bd070f9dep+1, 0x1.3f1722800d371p+2,
      0x1.e5d82ee6173f2p+1, 0x1.3e94e0c50e345p+2, 0x1.bc48838df04dep+1};
  const std::vector<double> stddevs = {
      0x1.0b83efd97c59bp+2, 0x1.028028cabd95cp+2, 0x1.da4ea0aef5fbp+1,
      0x1.ffcffffc32b61p+1, 0x1.08df4ad4cdbb1p+2, 0x1.052d719b46b59p+2};
  EXPECT_EQ(s.means(), means);
  EXPECT_EQ(s.stddevs(), stddevs);
}

TEST(StandardScaler, ConstantColumnMapsToZero) {
  Matrix x = {{5.0}, {5.0}, {5.0}};
  StandardScaler s;
  s.fit(x);
  const Matrix t = s.transform(x);
  for (double v : t.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(StandardScaler, WidthMismatchThrows) {
  Matrix x = {{1.0, 2.0}};
  StandardScaler s;
  s.fit(x);
  Matrix bad(1, 3);
  EXPECT_THROW(s.transform_inplace(bad), std::invalid_argument);
  Matrix out;
  EXPECT_THROW(s.transform_to(bad, out), std::invalid_argument);
}

TEST(StandardScaler, EmptyFitThrows) {
  StandardScaler s;
  EXPECT_THROW(s.fit(Matrix(0, 2)), std::invalid_argument);
}

TEST(StandardScaler, RestoreRoundTrip) {
  Matrix x = {{1.0, 2.0}, {3.0, 4.0}};
  StandardScaler s;
  s.fit(x);
  StandardScaler restored;
  restored.restore(s.means(), s.stddevs());
  const Matrix a = s.transform(x);
  const Matrix b = restored.transform(x);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
}

TEST(LogTransform, ForwardInverseRoundTrip) {
  for (const double y : {0.5, 3.0, 100.0})
    EXPECT_NEAR(LogTargetTransform::inverse(LogTargetTransform::forward(y)),
                y, 1e-12);
}

TEST(LogTransform, ScalarMatchesStd) {
  EXPECT_DOUBLE_EQ(LogTargetTransform::forward(std::exp(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(LogTargetTransform::inverse(0.0), 1.0);
}

TEST(LogTransform, NonPositiveThrows) {
  EXPECT_THROW((void)LogTargetTransform::forward(0.0), std::domain_error);
  EXPECT_THROW((void)LogTargetTransform::forward(-1.0), std::domain_error);
}

// The paper's rationale (section 5.2): equal absolute error in log space is
// equal *relative* error in linear space.
TEST(LogTransform, LogErrorIsRelativeError) {
  const double t1 = 10.0;
  const double t2 = 1000.0;
  const double log_err = 0.1;
  const double p1 = std::exp(std::log(t1) + log_err);
  const double p2 = std::exp(std::log(t2) + log_err);
  EXPECT_NEAR(p1 / t1, p2 / t2, 1e-12);
}

}  // namespace
}  // namespace pt::ml
