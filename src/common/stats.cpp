#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace pt::common {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::domain_error("geometric_mean: non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The AVX builds' contraction, written out (stats.cpp compiles with
  // -ffp-contract=off) so every backend rounds alike.
  return std::fma(sorted[lo], 1.0 - frac, sorted[hi] * frac);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double trimmed_mean(std::span<const double> xs, double trim_fraction) {
  if (xs.empty()) throw std::invalid_argument("trimmed_mean: empty sample");
  if (trim_fraction < 0.0 || trim_fraction >= 0.5)
    throw std::invalid_argument("trimmed_mean: fraction outside [0, 0.5)");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto cut = static_cast<std::size_t>(
      trim_fraction * static_cast<double>(sorted.size()));
  double acc = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) acc += sorted[i];
  return acc / static_cast<double>(sorted.size() - 2 * cut);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pearson: size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  // The AVX builds vectorise the products of each pair of rows, rounding
  // them before the in-order sums, and contract only a last, unpaired row's
  // three multiply-adds. Written out (stats.cpp compiles with
  // -ffp-contract=off), every backend gives their bits.
  const std::size_t paired = xs.size() & ~std::size_t{1};
  for (std::size_t i = 0; i < paired; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (paired < xs.size()) {
    const double dx = xs[paired] - mx;
    const double dy = ys[paired] - my;
    sxy = std::fma(dx, dy, sxy);
    sxx = std::fma(dx, dx, sxx);
    syy = std::fma(dy, dy, syy);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace pt::common
