#pragma once

// Reference forms of the fp64 training path for the exactness tests. Every
// output element is computed on its own with each rounding spelled out:
// fused steps as std::fma, every other product rounded before its add
// (training_reference.cpp is compiled with -ffp-contract=off), and the
// sigmoid's exp is the scalar common::math::exp. They follow the operation
// contract in ml/matrix.hpp and the unblocked forward/backward passes and
// trainer loop that the library's register-blocked kernels and reused
// buffers replaced, so the library must match them bit for bit.

#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/trainer.hpp"

namespace pt::ml::reference {

[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_at(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix matmul_bt(const Matrix& a, const Matrix& b);
[[nodiscard]] double squared_error_sum(const Matrix& y, const Matrix& target);

/// Activated output of every layer.
[[nodiscard]] std::vector<Matrix> forward_layers(const Mlp& net,
                                                 const Matrix& x);
[[nodiscard]] double loss(const Mlp& net, const Matrix& x,
                          const Matrix& target);
/// Fills `grads` and returns the loss, like Mlp::backward_batch.
double backward_batch(const Mlp& net, const Matrix& x, const Matrix& target,
                      Gradients& grads);

/// iRprop- with the validation split, early stopping and best-weight
/// restore of RpropTrainer::train, on the reference backward pass and loss.
TrainResult train_rprop(Mlp& net, const Dataset& data,
                        const RpropTrainer::Options& options,
                        common::Rng& rng);

}  // namespace pt::ml::reference
