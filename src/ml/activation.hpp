#pragma once

// Activation functions for the MLP. The paper's network uses sigmoid hidden
// units and a linear output; those two are all the library has.

#include <span>
#include <string>

#include "ml/matrix.hpp"

namespace pt::ml {

enum class Activation { kLinear, kSigmoid };

/// Value of the activation at x.
[[nodiscard]] double activate(Activation act, double x) noexcept;

/// m(r, c) = activate(act, m(r, c) + bias[c]) for every element: the bias
/// add rounds, then the activation (sigmoid as 1 / (1 + exp(-x)) with
/// common::math::exp, four lanes at a time), so the result equals the
/// scalar activate() bit for bit.
void add_bias_activate(Activation act, std::span<const double> bias,
                       Matrix& m);

[[nodiscard]] std::string to_string(Activation act);
/// Inverse of to_string; throws std::invalid_argument for any other name.
[[nodiscard]] Activation activation_from_string(const std::string& name);

}  // namespace pt::ml
