#pragma once

// Small statistics toolkit used by the ML metrics, the experiment harnesses
// and the timing model's noise calibration.

#include <cstddef>
#include <span>

namespace pt::common {

/// Welford online accumulator for mean/variance; numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Geometric mean; all inputs must be positive.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Median (quantile 0.5). Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::span<const double> xs);

/// Symmetrically trimmed mean: sorts a copy, drops floor(trim_fraction * n)
/// values from each end and averages the rest — the robust aggregator used
/// when repeating noisy measurements. trim_fraction must be in [0, 0.5);
/// trim_fraction == 0 is the plain mean. Throws std::invalid_argument on an
/// empty sample or an out-of-range fraction.
[[nodiscard]] double trimmed_mean(std::span<const double> xs,
                                  double trim_fraction);

/// Pearson correlation coefficient; 0 if either side is constant.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

}  // namespace pt::common
