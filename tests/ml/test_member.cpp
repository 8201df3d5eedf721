#include "ml/member.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace pt::ml {
namespace {

TEST(Member, ConstructionValidation) {
  EXPECT_THROW(Member(0, 3), std::invalid_argument);
  EXPECT_THROW(Member(3, 0), std::invalid_argument);
}

TEST(Member, LayoutPadsAndViews) {
  // H rounded up to the backend's vector width: 5 -> 8 on every backend,
  // 12 -> 12 on 4 lanes and 16 on 8.
  const bool eight = common::simd::kWidthD == 8;
  ASSERT_TRUE(eight || common::simd::kWidthD == 4);
  for (const auto& [hidden, stride] :
       {std::pair<std::size_t, std::size_t>{5, 8},
        {12, eight ? 16 : 12}}) {
    SCOPED_TRACE("hidden " + std::to_string(hidden));
    common::Rng rng(3);
    Member member(3, hidden);
    member.init_weights(rng);
    for (double& b : member.b1()) b = rng.uniform(-1.0, 1.0);
    member.b2() = 0.25;
    EXPECT_EQ(member.inputs(), 3u);
    EXPECT_EQ(member.hidden(), hidden);
    EXPECT_EQ(member.stride(), stride);
    EXPECT_EQ(member.flat().size(), 3 * stride + stride + stride + 1);
    const auto flat = member.flat();
    for (std::size_t c = hidden; c < stride; ++c) {
      for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(flat[k * stride + c], 0.0);
      EXPECT_EQ(flat[member.b1_offset() + c], 1.0);
      EXPECT_EQ(flat[member.w2_offset() + c], 0.0);
    }
    EXPECT_EQ(flat[member.b2_offset()], 0.25);
    // The views cover the real units of the flat layout.
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(member.w1(k).size(), hidden);
      EXPECT_EQ(member.w1(k).data(), flat.data() + k * stride);
    }
    EXPECT_EQ(member.b1().data(), flat.data() + member.b1_offset());
    EXPECT_EQ(member.w2().data(), flat.data() + member.w2_offset());
    EXPECT_EQ(member.b1().size(), hidden);
    EXPECT_EQ(member.w2().size(), hidden);
  }
}

TEST(Member, InitWeightsWithinXavierBound) {
  common::Rng rng(7);
  Member member(4, 30);
  member.b2() = 3.0;
  member.init_weights(rng);
  const double limit1 = std::sqrt(6.0 / (4 + 30));
  const double limit2 = std::sqrt(6.0 / (30 + 1));
  bool any_nonzero = false;
  for (std::size_t k = 0; k < 4; ++k)
    for (double w : member.w1(k)) {
      EXPECT_LE(std::abs(w), limit1);
      any_nonzero |= w != 0.0;
    }
  EXPECT_TRUE(any_nonzero);
  for (double w : member.w2()) EXPECT_LE(std::abs(w), limit2);
  for (double b : member.b1()) EXPECT_EQ(b, 0.0);
  EXPECT_EQ(member.b2(), 0.0);
}

TEST(MemberForward, ZeroWeightsGiveTheOutputBias) {
  Member member(2, 3);
  member.b2() = -0.75;
  const Matrix x = {{1.0, 2.0}};
  std::vector<double> y(1);
  member_forward(member, x, y);
  EXPECT_EQ(y[0], -0.75);
}

TEST(MemberForward, ManualOneUnit) {
  Member member(2, 1);
  member.w1(0)[0] = 2.0;
  member.w1(1)[0] = -1.0;
  member.b1()[0] = 0.5;
  member.w2()[0] = 3.0;
  member.b2() = 0.25;
  const Matrix x = {{3.0, 4.0}};
  std::vector<double> y(1);
  member_forward(member, x, y);
  const double z = 3.0 * 2.0 + 4.0 * -1.0 + 0.5;
  EXPECT_DOUBLE_EQ(y[0], 3.0 / (1.0 + std::exp(-z)) + 0.25);
}

// The pass runs rows four at a time and the last one to three alone; every
// row's output is its one-row call's, bit for bit.
TEST(MemberForward, EveryRowEqualsItsOneRowCall) {
  common::Rng rng(5);
  Member member(3, 30);
  member.init_weights(rng);
  Matrix x(11, 3);
  for (auto& v : x.flat()) v = rng.uniform(-2.0, 2.0);
  std::vector<double> batch(x.rows());
  member_forward(member, x, batch);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix row(1, 3);
    for (std::size_t c = 0; c < 3; ++c) row(0, c) = x(r, c);
    std::vector<double> single(1);
    member_forward(member, row, single);
    EXPECT_EQ(batch[r], single[0]) << "row " << r;
  }
}

TEST(MemberForward, RejectsWrongWidthOrOutputSize) {
  const Member member(3, 4);
  std::vector<double> y(2);
  EXPECT_THROW(member_forward(member, Matrix(2, 5), y), std::invalid_argument);
  EXPECT_THROW(member_forward(member, Matrix(3, 3), y), std::invalid_argument);
}

TEST(MemberEpoch, LossIsMeanSquaredError) {
  // Zero hidden weights and biases: every hidden unit is sigmoid(0) = 0.5,
  // so with w2 = 2 the output is 1 on every row.
  Member member(1, 1);
  member.w2()[0] = 2.0;
  const Matrix x = {{1.0}, {2.0}};
  const Matrix t = {{0.0}, {-1.0}};
  // ((1 - 0)^2 + (1 + 1)^2) / 2 = 2.5
  EXPECT_EQ(member_loss(member, x, t), 2.5);
  std::vector<double> grads;
  EXPECT_EQ(member_epoch(member, x, t, grads), 2.5);
  // dL/db2 = (2/N) sum (y - t) = (2 * 1 + 2 * 2) / 2.
  EXPECT_EQ(grads[member.b2_offset()], 3.0);
}

TEST(MemberEpoch, RejectsMismatchedData) {
  const Member member(3, 4);
  std::vector<double> grads;
  const Matrix t(2, 1);
  EXPECT_THROW((void)member_epoch(member, Matrix(2, 4), t, grads),
               std::invalid_argument);
  EXPECT_THROW((void)member_epoch(member, Matrix(2, 3), Matrix(3, 1), grads),
               std::invalid_argument);
  EXPECT_THROW((void)member_loss(member, Matrix(2, 3), Matrix(2, 2)),
               std::invalid_argument);
}

// The decisive test: the member epoch's analytic gradients against central
// finite differences of its loss, on members of several widths (within one
// 4-lane vector, exactly one, and across several with a remainder).
class MemberGradientTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MemberGradientTest, BackwardMatchesFiniteDifferences) {
  common::Rng rng(11);
  Member member(3, GetParam());
  member.init_weights(rng);
  for (double& b : member.b1()) b = rng.uniform(-0.5, 0.5);

  Matrix x(5, 3);
  for (auto& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix t(5, 1);
  for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);

  std::vector<double> grads;
  (void)member_epoch(member, x, t, grads);

  // Every real parameter: W1, b1, w2 and b2 (pad entries are skipped).
  const std::size_t s = member.stride();
  std::vector<std::size_t> probes;
  for (std::size_t k = 0; k < member.inputs(); ++k)
    for (std::size_t c = 0; c < member.hidden(); ++c)
      probes.push_back(k * s + c);
  for (std::size_t c = 0; c < member.hidden(); ++c) {
    probes.push_back(member.b1_offset() + c);
    probes.push_back(member.w2_offset() + c);
  }
  probes.push_back(member.b2_offset());

  const double eps = 1e-6;
  auto theta = member.flat();
  for (const std::size_t i : probes) {
    const double saved = theta[i];
    theta[i] = saved + eps;
    const double lp = member_loss(member, x, t);
    theta[i] = saved - eps;
    const double lm = member_loss(member, x, t);
    theta[i] = saved;
    EXPECT_NEAR(grads[i], (lp - lm) / (2.0 * eps), 1e-4) << "parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MemberGradientTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{8}, std::size_t{30}));

}  // namespace
}  // namespace pt::ml
