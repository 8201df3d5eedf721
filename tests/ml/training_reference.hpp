#pragma once

// Reference forms of the fp64 training path for the exactness tests. Every
// output element is computed on its own with each rounding spelled out:
// fused steps as std::fma, every other product rounded before its add
// (training_reference.cpp is compiled with -ffp-contract=off), and the
// sigmoid's exp is the scalar common::math::exp. They are the unblocked,
// layer-by-layer forward/backward passes and trainer loop that the
// library's fused member pass (ml/member.hpp) replaced, with the
// operation contract of DESIGN.md "Training path", so the library must
// match them bit for bit.

#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/member.hpp"
#include "ml/trainer.hpp"

namespace pt::ml::reference {

/// A member layer by layer: weights {W1 (inputs x H), w2 (H x 1)} and
/// biases {b1 (H), b2 (1)}, a sigmoid hidden layer and a linear output.
/// The same struct holds per-layer gradients.
struct Net {
  std::vector<Matrix> weights;
  std::vector<std::vector<double>> biases;
};
using Gradients = Net;

/// `member`'s real parameters, pads left out.
[[nodiscard]] Net from_member(const Member& member);

/// Zero gradients shaped like `net`'s parameters.
[[nodiscard]] Gradients make_gradients(const Net& net);

[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_at(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_bt(const Matrix& a, const Matrix& b);
[[nodiscard]] double squared_error_sum(const Matrix& y, const Matrix& target);

/// Activated output of every layer.
[[nodiscard]] std::vector<Matrix> forward_layers(const Net& net,
                                                 const Matrix& x);
[[nodiscard]] double loss(const Net& net, const Matrix& x,
                          const Matrix& target);
/// Mean squared error L = (1/N) * sum_i sum_k (y_ik - t_ik)^2 and its
/// gradient: fills `grads` and returns the loss.
double backward_batch(const Net& net, const Matrix& x, const Matrix& target,
                      Gradients& grads);

/// iRprop- with the validation split, early stopping and best-weight
/// restore of RpropTrainer::train, on the reference backward pass and loss.
TrainResult train_rprop(Net& net, const Dataset& data,
                        const RpropTrainer::Options& options,
                        common::Rng& rng);

}  // namespace pt::ml::reference
