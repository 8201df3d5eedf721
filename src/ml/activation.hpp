#pragma once

// Activation functions for the MLP. The paper's network uses sigmoid hidden
// units and a linear output; the validity classifier's output is a sigmoid
// too. Those two are all the library has.

#include <span>
#include <string>

#include "ml/matrix.hpp"

namespace pt::ml {

enum class Activation { kLinear, kSigmoid };

/// Value of the activation at x.
[[nodiscard]] double activate(Activation act, double x) noexcept;

/// Derivative expressed in terms of the *activated* value y = f(x) (1 and
/// y * (1 - y)), which lets the backward pass reuse the forward buffers.
[[nodiscard]] double activate_grad_from_output(Activation act,
                                               double y) noexcept;

/// m(r, c) = activate(act, m(r, c) + bias[c]) for every element: the bias
/// add rounds, then the activation (sigmoid as 1 / (1 + exp(-x)) with
/// common::math::exp, four lanes at a time), so the result equals the
/// scalar activate() bit for bit.
void add_bias_activate(Activation act, std::span<const double> bias,
                       Matrix& m);

/// delta *= f'(y) elementwise, with y the activated forward output and f'
/// exactly activate_grad_from_output.
void scale_by_activation_grad(Activation act, const Matrix& y,
                              Matrix& delta) noexcept;

[[nodiscard]] std::string to_string(Activation act);
/// Inverse of to_string; throws std::invalid_argument for any other name.
[[nodiscard]] Activation activation_from_string(const std::string& name);

}  // namespace pt::ml
