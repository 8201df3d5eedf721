#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(Mlp, LossIsMeanSquaredError) {
  Mlp net(1, {LayerSpec{1, Activation::kLinear}});
  net.weights(0)(0, 0) = 1.0;  // identity
  const Matrix x = {{1.0}, {2.0}};
  const Matrix t = {{0.0}, {0.0}};
  // ((1-0)^2 + (2-0)^2) / 2 = 2.5
  EXPECT_DOUBLE_EQ(net.loss(x, t), 2.5);
}

// The decisive test: analytic gradients vs central finite differences,
// across layer stacks: the ensemble's shape, the validity classifier's
// sigmoid output, and deeper or wider ones.
class MlpGradientTest
    : public ::testing::TestWithParam<std::vector<LayerSpec>> {};

TEST_P(MlpGradientTest, BackwardMatchesFiniteDifferences) {
  common::Rng rng(11);
  Mlp net(3, GetParam());
  net.init_weights(rng);

  Matrix x(5, 3);
  for (auto& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix t(5, net.output_size());
  for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);

  Gradients grads = net.make_gradients();
  net.backward_batch(x, t, grads);

  const double eps = 1e-6;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    auto wf = net.weights(l).flat();
    auto gf = grads.weights[l].flat();
    // Probe a deterministic subset of weights to keep the test fast.
    for (std::size_t i = 0; i < wf.size(); i += 7) {
      const double saved = wf[i];
      wf[i] = saved + eps;
      const double lp = net.loss(x, t);
      wf[i] = saved - eps;
      const double lm = net.loss(x, t);
      wf[i] = saved;
      EXPECT_NEAR(gf[i], (lp - lm) / (2.0 * eps), 1e-4)
          << "layer " << l << " weight " << i;
    }
    auto& bias = net.biases(l);
    auto& gb = grads.biases[l];
    for (std::size_t i = 0; i < bias.size(); i += 5) {
      const double saved = bias[i];
      bias[i] = saved + eps;
      const double lp = net.loss(x, t);
      bias[i] = saved - eps;
      const double lm = net.loss(x, t);
      bias[i] = saved;
      EXPECT_NEAR(gb[i], (lp - lm) / (2.0 * eps), 1e-4)
          << "layer " << l << " bias " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MlpGradientTest,
    ::testing::Values(
        std::vector<LayerSpec>{{1, Activation::kLinear}},
        std::vector<LayerSpec>{{8, Activation::kSigmoid},
                               {1, Activation::kLinear}},
        std::vector<LayerSpec>{{6, Activation::kSigmoid},
                               {1, Activation::kSigmoid}},
        std::vector<LayerSpec>{{10, Activation::kSigmoid},
                               {5, Activation::kSigmoid},
                               {2, Activation::kLinear}}));

TEST(Mlp, BackwardReturnsLoss) {
  common::Rng rng(13);
  Mlp net = paper_net(2);
  net.init_weights(rng);
  const Matrix x = {{0.5, -0.5}, {0.2, 0.8}};
  const Matrix t = {{1.0}, {0.0}};
  Gradients grads = net.make_gradients();
  const double loss = net.backward_batch(x, t, grads);
  EXPECT_EQ(loss, net.loss(x, t));
}

TEST(Mlp, BackwardShapeValidation) {
  Mlp net = paper_net(3);
  Gradients g = net.make_gradients();
  const Matrix bad_x(2, 4);
  const Matrix t(2, 1);
  EXPECT_THROW(net.backward_batch(bad_x, t, g), std::invalid_argument);
  const Matrix x(2, 3);
  const Matrix bad_t(3, 1);
  EXPECT_THROW(net.backward_batch(x, bad_t, g), std::invalid_argument);
}

}  // namespace
}  // namespace pt::ml
