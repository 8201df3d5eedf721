#pragma once

// Regression quality metrics. The paper's headline metric is the *mean
// relative error* |pred - actual| / actual of execution-time predictions.

#include <span>

namespace pt::ml {

/// Mean of |pred - actual| / actual. Actual values must be non-zero.
[[nodiscard]] double mean_relative_error(std::span<const double> predicted,
                                         std::span<const double> actual);

}  // namespace pt::ml
