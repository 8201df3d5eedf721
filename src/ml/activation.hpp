#pragma once

// The activations of the paper's network: sigmoid hidden units and a linear
// output. The persisted model format names them (ml/serialize.hpp).

#include <string>

namespace pt::ml {

enum class Activation { kLinear, kSigmoid };

[[nodiscard]] std::string to_string(Activation act);
/// Inverse of to_string; throws std::invalid_argument for any other name.
[[nodiscard]] Activation activation_from_string(const std::string& name);

}  // namespace pt::ml
