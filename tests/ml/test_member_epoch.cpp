#include "ml/member_epoch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace pt::ml {
namespace {

Mlp member_net(std::size_t inputs, std::size_t hidden) {
  return Mlp(inputs,
             {{hidden, Activation::kSigmoid}, {1, Activation::kLinear}});
}

TEST(MemberEpoch, LossIsMeanSquaredError) {
  // Zero hidden weights and biases: every hidden unit is sigmoid(0) = 0.5,
  // so with w2 = 2 the output is 1 on every row.
  Mlp net = member_net(1, 1);
  net.weights(1)(0, 0) = 2.0;
  const MemberParams params(net);
  const Matrix x = {{1.0}, {2.0}};
  const Matrix t = {{0.0}, {-1.0}};
  // ((1 - 0)^2 + (1 + 1)^2) / 2 = 2.5
  EXPECT_EQ(member_loss(params, x, t), 2.5);
  std::vector<double> grads;
  EXPECT_EQ(member_epoch(params, x, t, grads), 2.5);
  // dL/db2 = (2/N) sum (y - t) = (2 * 1 + 2 * 2) / 2.
  EXPECT_EQ(grads[params.b2_offset()], 3.0);
}

TEST(MemberEpoch, PacksWithPaddingAndUnpacksExactly) {
  common::Rng rng(3);
  Mlp net = member_net(3, 5);
  net.init_weights(rng);
  for (auto& b : net.biases(0)) b = rng.uniform(-1.0, 1.0);
  net.biases(1)[0] = 0.25;
  const MemberParams params(net);
  EXPECT_EQ(params.inputs(), 3u);
  EXPECT_EQ(params.hidden(), 5u);
  EXPECT_EQ(params.stride(), 8u);
  EXPECT_EQ(params.flat().size(), 3u * 8u + 8u + 8u + 1u);
  const auto flat = params.flat();
  for (std::size_t c = 5; c < 8; ++c) {
    for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(flat[k * 8 + c], 0.0);
    EXPECT_EQ(flat[params.b1_offset() + c], 1.0);
    EXPECT_EQ(flat[params.w2_offset() + c], 0.0);
  }
  EXPECT_EQ(flat[params.b2_offset()], 0.25);

  Mlp copy = member_net(3, 5);
  params.unpack(copy);
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t i = 0; i < net.weights(l).size(); ++i)
      EXPECT_EQ(copy.weights(l).flat()[i], net.weights(l).flat()[i]);
    EXPECT_EQ(copy.biases(l), net.biases(l));
  }
  Mlp other = member_net(3, 6);
  EXPECT_THROW(params.unpack(other), std::invalid_argument);
}

TEST(MemberEpoch, RejectsMismatchedData) {
  const MemberParams params(member_net(3, 4));
  std::vector<double> grads;
  const Matrix t(2, 1);
  EXPECT_THROW((void)member_epoch(params, Matrix(2, 4), t, grads),
               std::invalid_argument);
  EXPECT_THROW((void)member_epoch(params, Matrix(2, 3), Matrix(3, 1), grads),
               std::invalid_argument);
  EXPECT_THROW((void)member_loss(params, Matrix(2, 3), Matrix(2, 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::ml
