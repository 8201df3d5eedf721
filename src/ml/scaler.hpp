#pragma once

// Feature/target preprocessing.
//
// StandardScaler: per-column zero-mean/unit-variance normalization of the
// features (sigmoid nets train poorly on raw parameter magnitudes that span
// 1..128).
//
// LogTargetTransform: the paper's key trick (section 5.2) — train on
// log(time) so that minimizing squared error on the transformed target
// minimizes *relative* error on the raw execution time.

#include <vector>

#include "ml/matrix.hpp"

namespace pt::ml {

class StandardScaler {
 public:
  /// Learn per-column mean and standard deviation, the variance sum adding
  /// each square as one fma (the same bits on every backend). Constant
  /// columns get stddev 1 so they map to zero instead of NaN.
  void fit(const Matrix& x);

  [[nodiscard]] bool fitted() const noexcept { return !means_.empty(); }
  [[nodiscard]] std::size_t width() const noexcept { return means_.size(); }

  void transform_inplace(Matrix& x) const;
  [[nodiscard]] Matrix transform(const Matrix& x) const;
  /// Transformed copy written into `out` (reshaped in place, reusing its
  /// allocation) — the allocation-free variant for bulk-prediction scratch.
  void transform_to(const Matrix& x, Matrix& out) const;

  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return means_;
  }
  [[nodiscard]] const std::vector<double>& stddevs() const noexcept {
    return stddevs_;
  }

  /// Restore from saved parameters (used by model deserialization).
  void restore(std::vector<double> means, std::vector<double> stddevs);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

/// log/exp transform for strictly positive targets (execution times).
class LogTargetTransform {
 public:
  /// log(y); throws std::domain_error on non-positive input.
  [[nodiscard]] static double forward(double y);

  /// exp(y) (inverse of forward).
  [[nodiscard]] static double inverse(double y) noexcept;
};

}  // namespace pt::ml
