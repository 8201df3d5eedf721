#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/member_epoch.hpp"

namespace pt::ml {
namespace {

Mlp paper_net(std::size_t inputs = 4) {
  // The paper's topology: one hidden layer of 30 sigmoid units + linear out.
  return Mlp(inputs, {LayerSpec{30, Activation::kSigmoid},
                      LayerSpec{1, Activation::kLinear}});
}

TEST(Mlp, ConstructionValidation) {
  EXPECT_THROW(Mlp(0, {LayerSpec{1, Activation::kLinear}}),
               std::invalid_argument);
  EXPECT_THROW(Mlp(3, {}), std::invalid_argument);
  EXPECT_THROW(Mlp(3, {LayerSpec{0, Activation::kLinear}}),
               std::invalid_argument);
}

TEST(Mlp, ShapesAndParameterCount) {
  const Mlp net = paper_net(4);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 1u);
  EXPECT_EQ(net.layer_count(), 2u);
  // (4*30 + 30) + (30*1 + 1) = 181
  EXPECT_EQ(net.parameter_count(), 181u);
}

TEST(Mlp, ZeroWeightsGiveZeroOutput) {
  const Mlp net(2, {LayerSpec{1, Activation::kLinear}});
  const auto y = net.forward(std::vector<double>{1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(Mlp, ForwardManualSingleLayer) {
  Mlp net(2, {LayerSpec{1, Activation::kLinear}});
  net.weights(0)(0, 0) = 2.0;
  net.weights(0)(1, 0) = -1.0;
  net.biases(0)[0] = 0.5;
  const auto y = net.forward(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0 * 2.0 + 4.0 * -1.0 + 0.5);
}

TEST(Mlp, ForwardBatchMatchesSingle) {
  common::Rng rng(5);
  Mlp net = paper_net(3);
  net.init_weights(rng);
  Matrix x = {{0.1, -0.2, 0.3}, {1.0, 0.0, -1.0}, {0.5, 0.5, 0.5}};
  const Matrix batch = net.forward_batch(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto single = net.forward(x.row(r));
    EXPECT_EQ(batch(r, 0), single[0]);  // exact: same kernels
  }
}

TEST(Mlp, ForwardRejectsWrongWidth) {
  const Mlp net = paper_net(3);
  EXPECT_THROW(net.forward(std::vector<double>{1.0}), std::invalid_argument);
  const Matrix x(2, 5);
  EXPECT_THROW(net.forward_batch(x), std::invalid_argument);
}

TEST(Mlp, InitWeightsWithinXavierBound) {
  common::Rng rng(7);
  Mlp net = paper_net(4);
  net.init_weights(rng);
  const double limit0 = std::sqrt(6.0 / (4 + 30));
  for (double w : net.weights(0).flat()) {
    EXPECT_LE(std::abs(w), limit0);
  }
  bool any_nonzero = false;
  for (double w : net.weights(0).flat()) any_nonzero |= w != 0.0;
  EXPECT_TRUE(any_nonzero);
}

// The decisive test: the member epoch's analytic gradients against central
// finite differences of its loss, on member shapes of several widths
// (within one 4-lane vector, exactly one, and across several with a
// remainder).
class MlpGradientTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpGradientTest, BackwardMatchesFiniteDifferences) {
  common::Rng rng(11);
  Mlp net(3, {LayerSpec{GetParam(), Activation::kSigmoid},
              LayerSpec{1, Activation::kLinear}});
  net.init_weights(rng);
  for (auto& b : net.biases(0)) b = rng.uniform(-0.5, 0.5);

  Matrix x(5, 3);
  for (auto& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix t(5, 1);
  for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);

  MemberParams params(net);
  std::vector<double> grads;
  (void)member_epoch(params, x, t, grads);

  // Every real parameter: W1, b1, w2 and b2 (pad entries are skipped).
  const std::size_t s = params.stride();
  std::vector<std::size_t> probes;
  for (std::size_t k = 0; k < params.inputs(); ++k)
    for (std::size_t c = 0; c < params.hidden(); ++c)
      probes.push_back(k * s + c);
  for (std::size_t c = 0; c < params.hidden(); ++c) {
    probes.push_back(params.b1_offset() + c);
    probes.push_back(params.w2_offset() + c);
  }
  probes.push_back(params.b2_offset());

  const double eps = 1e-6;
  auto theta = params.flat();
  for (const std::size_t i : probes) {
    const double saved = theta[i];
    theta[i] = saved + eps;
    const double lp = member_loss(params, x, t);
    theta[i] = saved - eps;
    const double lm = member_loss(params, x, t);
    theta[i] = saved;
    EXPECT_NEAR(grads[i], (lp - lm) / (2.0 * eps), 1e-4) << "parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, MlpGradientTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{8}, std::size_t{30}));

}  // namespace
}  // namespace pt::ml
