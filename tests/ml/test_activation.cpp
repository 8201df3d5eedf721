#include "ml/activation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pt::ml {
namespace {

TEST(Activation, LinearIsIdentity) {
  EXPECT_DOUBLE_EQ(activate(Activation::kLinear, 3.5), 3.5);
}

TEST(Activation, SigmoidValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kSigmoid, 0.0), 0.5);
  EXPECT_NEAR(activate(Activation::kSigmoid, 10.0), 1.0, 1e-4);
  EXPECT_NEAR(activate(Activation::kSigmoid, -10.0), 0.0, 1e-4);
}

class ActivationTest : public ::testing::TestWithParam<Activation> {};

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationTest,
                         ::testing::Values(Activation::kLinear,
                                           Activation::kSigmoid),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST(Activation, AddBiasActivateAppliesElementwise) {
  Matrix m = {{-1.0, 0.0, 2.0}};
  const std::vector<double> bias = {0.5, -0.5, 1.0};
  add_bias_activate(Activation::kLinear, bias, m);
  EXPECT_DOUBLE_EQ(m(0, 0), -0.5);
  EXPECT_DOUBLE_EQ(m(0, 1), -0.5);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_THROW(
      add_bias_activate(Activation::kLinear, std::vector<double>(2), m),
      std::invalid_argument);
}

// The matrix form (the vectorised sigmoid) equals the scalar function bit
// for bit, in full vectors and in row remainders.
TEST_P(ActivationTest, MatrixFormEqualsScalarFunctionExactly) {
  const Activation act = GetParam();
  common::Rng rng(3);
  for (std::size_t cols : {1u, 3u, 4u, 5u, 30u, 33u}) {
    Matrix z(7, cols);
    std::vector<double> bias(cols);
    for (auto& v : z.flat()) v = rng.uniform(-40.0, 40.0);
    for (auto& v : bias) v = rng.uniform(-1.0, 1.0);
    z(0, 0) = -0.0;
    Matrix y = z;
    add_bias_activate(act, bias, y);
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        const double want = activate(act, z(r, c) + bias[c]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(y(r, c)),
                  std::bit_cast<std::uint64_t>(want));
      }
  }
}

TEST(Activation, StringRoundTrip) {
  for (Activation act : {Activation::kLinear, Activation::kSigmoid})
    EXPECT_EQ(activation_from_string(to_string(act)), act);
  for (const char* name : {"bogus", "tanh", "relu"})
    EXPECT_THROW((void)activation_from_string(name), std::invalid_argument)
        << name;
}

}  // namespace
}  // namespace pt::ml
