#pragma once

// Supervised-learning dataset: feature matrix X plus target matrix Y, with
// the split/fold helpers the bagging ensemble and experiment harness need.

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"

namespace pt::ml {

struct Dataset {
  Matrix x;  // (n, features)
  Matrix y;  // (n, targets)

  [[nodiscard]] std::size_t size() const noexcept { return x.rows(); }
  [[nodiscard]] std::size_t features() const noexcept { return x.cols(); }
  [[nodiscard]] std::size_t targets() const noexcept { return y.cols(); }

  /// Subset by row indices.
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

  /// Throws std::invalid_argument if x/y row counts disagree.
  void validate() const;
};

/// Train/validation split: the first `round(n * train_fraction)` of a random
/// permutation go to train, the rest to validation.
struct Split {
  Dataset train;
  Dataset validation;
};
[[nodiscard]] Split train_validation_split(const Dataset& data,
                                           double train_fraction,
                                           common::Rng& rng);

/// K contiguous folds of a random permutation of [0, n); the folds partition
/// the index range and differ in size by at most one.
[[nodiscard]] std::vector<std::vector<std::size_t>> kfold_indices(
    std::size_t n, std::size_t k, common::Rng& rng);

}  // namespace pt::ml
