#pragma once

// One bagging member, the paper's network (§5.2): one sigmoid hidden layer
// of H units and one linear output, fitted to one target by the mean
// squared error L = (1/N) * sum_r (y_r - t_r)^2, and the fp64 pass that
// trains, validates and runs it.
//
// member_epoch is one pass over blocks of 4 rows. For each block it computes
// the hidden pre-activations and their sigmoid, the output and its loss
// term, the output delta and the hidden delta, and adds the block's rows to
// the W1, b1, w2 and b2 gradients, while the block's activations stay in L1.
// The gradient accumulators carry from block to block, so every element
// keeps one fma or add chain over the rows in ascending order: the operation
// contract of DESIGN.md "Training path". member_loss is the same forward
// pass and loss without the gradients (the validation loss), and
// member_forward the same forward pass alone (the ensemble's fp64
// inference).

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"

namespace pt::ml {

/// A member's parameters in the layout the pass reads, as one flat vector:
/// W1 (inputs x stride, row major), b1 (stride), w2 (stride), then b2, where
/// the stride is H rounded up to a multiple of simd::kWidthD (8 on
/// AVX-512F, else 4). Pad columns of W1 and pad lanes of w2 are 0. Pad
/// lanes of b1 are 1.0, so a pad unit's pre-activation is 1 and stays on
/// simd::exp's vector main path.
class Member {
 public:
  /// `inputs` features and `hidden` sigmoid units, every weight and bias 0.
  /// Throws std::invalid_argument if either is 0.
  Member(std::size_t inputs, std::size_t hidden);

  /// Xavier/Glorot uniform weights, W1 row by row and then w2, each in
  /// [-limit, limit) with limit = sqrt(6 / (fan_in + fan_out)); biases 0.
  void init_weights(common::Rng& rng);

  [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t hidden() const noexcept { return hidden_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::size_t b1_offset() const noexcept {
    return inputs_ * stride_;
  }
  [[nodiscard]] std::size_t w2_offset() const noexcept {
    return b1_offset() + stride_;
  }
  [[nodiscard]] std::size_t b2_offset() const noexcept {
    return w2_offset() + stride_;
  }

  /// Row k of W1 (input k's weights), b1 and w2, over the H real units.
  [[nodiscard]] std::span<double> w1(std::size_t k) noexcept {
    return {flat_.data() + k * stride_, hidden_};
  }
  [[nodiscard]] std::span<const double> w1(std::size_t k) const noexcept {
    return {flat_.data() + k * stride_, hidden_};
  }
  [[nodiscard]] std::span<double> b1() noexcept {
    return {flat_.data() + b1_offset(), hidden_};
  }
  [[nodiscard]] std::span<const double> b1() const noexcept {
    return {flat_.data() + b1_offset(), hidden_};
  }
  [[nodiscard]] std::span<double> w2() noexcept {
    return {flat_.data() + w2_offset(), hidden_};
  }
  [[nodiscard]] std::span<const double> w2() const noexcept {
    return {flat_.data() + w2_offset(), hidden_};
  }
  [[nodiscard]] double& b2() noexcept { return flat_[b2_offset()]; }
  [[nodiscard]] double b2() const noexcept { return flat_[b2_offset()]; }

  /// Every parameter, pads included, in the layout above.
  [[nodiscard]] std::span<double> flat() noexcept { return flat_; }
  [[nodiscard]] std::span<const double> flat() const noexcept {
    return flat_;
  }

 private:
  std::size_t inputs_;
  std::size_t hidden_;
  std::size_t stride_;
  std::vector<double> flat_;
};

/// The loss of the member on (x, y) (x: N x inputs, y: N x 1), and its
/// gradient in `grads`, resized to the member's layout. Pad entries of
/// `grads` are +0.0, so an update that moves a parameter only on a nonzero
/// gradient leaves the pads as they are.
double member_epoch(const Member& member, const Matrix& x, const Matrix& y,
                    std::vector<double>& grads);

/// The loss alone: member_epoch's forward pass and loss terms.
[[nodiscard]] double member_loss(const Member& member, const Matrix& x,
                                 const Matrix& y);

/// The member's output on every row of x, written to out (x.rows()
/// values): member_epoch's forward pass, so each output is that row's y.
void member_forward(const Member& member, const Matrix& x,
                    std::span<double> out);

}  // namespace pt::ml
