#include "ml/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace pt::ml {

double mean_relative_error(std::span<const double> predicted,
                           std::span<const double> actual) {
  if (predicted.size() != actual.size())
    throw std::invalid_argument("metric: size mismatch");
  if (predicted.empty()) throw std::invalid_argument("metric: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (actual[i] == 0.0)
      throw std::domain_error("mean_relative_error: zero actual value");
    acc += std::abs(predicted[i] - actual[i]) / std::abs(actual[i]);
  }
  return acc / static_cast<double>(predicted.size());
}

}  // namespace pt::ml
