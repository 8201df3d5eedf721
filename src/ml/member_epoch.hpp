#pragma once

// The training arithmetic of one bagging member: one sigmoid hidden layer of
// H units and one linear output (is_member_shape), fitted to one target by
// the mean squared error L = (1/N) * sum_r (y_r - t_r)^2.
//
// member_epoch is one pass over blocks of 4 rows. For each block it computes
// the hidden pre-activations and their sigmoid, the output and its loss
// term, the output delta and the hidden delta, and adds the block's rows to
// the W1, b1, w2 and b2 gradients, while the block's activations stay in L1.
// The gradient accumulators carry from block to block, so every element
// keeps one fma or add chain over the rows in ascending order: the operation
// contract of DESIGN.md "Training path". member_loss is the same forward
// pass and loss without the gradients (the validation loss).

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/mlp.hpp"

namespace pt::ml {

/// A member's parameters in the layout the epoch reads, as one flat vector:
/// W1 (inputs x stride, row major), b1 (stride), w2 (stride), then b2, where
/// the stride is H rounded up to a multiple of 4. Pad columns of W1 and pad
/// lanes of w2 are 0. Pad lanes of b1 are 1.0, so a pad unit's
/// pre-activation is 1 and stays on simd::exp's 4-lane path.
class MemberParams {
 public:
  /// Pack `net`. Throws std::invalid_argument unless it has the member
  /// shape.
  explicit MemberParams(const Mlp& net);

  /// Copy the parameters back into `net`, a member of the packed shape.
  void unpack(Mlp& net) const;

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
/// gradient in `grads`, resized to the parameters' layout. Pad entries of
/// `grads` are +0.0, so an update that moves a parameter only on a nonzero
/// gradient leaves the pads as they are.
double member_epoch(const MemberParams& params, const Matrix& x,
                    const Matrix& y, std::vector<double>& grads);

/// The loss alone: member_epoch's forward pass and loss terms.
[[nodiscard]] double member_loss(const MemberParams& params, const Matrix& x,
                                 const Matrix& y);

}  // namespace pt::ml
