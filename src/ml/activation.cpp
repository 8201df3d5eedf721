#include "ml/activation.hpp"

#include <stdexcept>

namespace pt::ml {

std::string to_string(Activation act) {
  return act == Activation::kSigmoid ? "sigmoid" : "linear";
}

Activation activation_from_string(const std::string& name) {
  if (name == "linear") return Activation::kLinear;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace pt::ml
