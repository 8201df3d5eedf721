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
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::kLinear, 7.0), 1.0);
}

TEST(Activation, SigmoidValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kSigmoid, 0.0), 0.5);
  EXPECT_NEAR(activate(Activation::kSigmoid, 10.0), 1.0, 1e-4);
  EXPECT_NEAR(activate(Activation::kSigmoid, -10.0), 0.0, 1e-4);
}

TEST(Activation, SigmoidGradFromOutput) {
  const double y = activate(Activation::kSigmoid, 0.7);
  EXPECT_NEAR(activate_grad_from_output(Activation::kSigmoid, y),
              y * (1.0 - y), 1e-12);
}

// Property check: the grad-from-output identity holds for both activations:
// f'(x) == activate_grad_from_output(f(x)) by finite differences.
class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, FiniteDifferenceMatches) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  for (double x : {-1.7, -0.3, 0.4, 1.9}) {
    const double fd =
        (activate(act, x + eps) - activate(act, x - eps)) / (2.0 * eps);
    const double grad = activate_grad_from_output(act, activate(act, x));
    EXPECT_NEAR(grad, fd, 1e-5) << to_string(act) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradTest,
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

// The matrix forms (vectorised sigmoid and its gradient) equal the scalar
// functions bit for bit, in full vectors and in row remainders.
TEST_P(ActivationGradTest, MatrixFormsEqualScalarFunctionsExactly) {
  const Activation act = GetParam();
  common::Rng rng(3);
  for (std::size_t cols : {1u, 3u, 4u, 5u, 30u, 33u}) {
    Matrix z(7, cols);
    Matrix delta(7, cols);
    std::vector<double> bias(cols);
    for (auto& v : z.flat()) v = rng.uniform(-40.0, 40.0);
    for (auto& v : delta.flat()) v = rng.uniform(-2.0, 2.0);
    for (auto& v : bias) v = rng.uniform(-1.0, 1.0);
    z(0, 0) = -0.0;
    Matrix y = z;
    add_bias_activate(act, bias, y);
    Matrix scaled = delta;
    scale_by_activation_grad(act, y, scaled);
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        const double want = activate(act, z(r, c) + bias[c]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(y(r, c)),
                  std::bit_cast<std::uint64_t>(want));
        const double want_d =
            delta(r, c) * activate_grad_from_output(act, y(r, c));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scaled(r, c)),
                  std::bit_cast<std::uint64_t>(want_d));
      }
  }
}

TEST(Activation, ScaleByGradLinearIsNoop) {
  const Matrix y = {{0.3, 0.8}};
  Matrix delta = {{1.0, 1.0}};
  scale_by_activation_grad(Activation::kLinear, y, delta);
  EXPECT_DOUBLE_EQ(delta(0, 0), 1.0);
}

TEST(Activation, ScaleByGradSigmoid) {
  const Matrix y = {{0.5}};
  Matrix delta = {{2.0}};
  scale_by_activation_grad(Activation::kSigmoid, y, delta);
  EXPECT_DOUBLE_EQ(delta(0, 0), 2.0 * 0.25);
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
