#include "ml/scaler.hpp"

#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace pt::ml {

void StandardScaler::fit(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler: empty fit");
  const std::size_t cols = x.cols();
  means_.assign(cols, 0.0);
  stddevs_.assign(cols, 0.0);
  const double n = static_cast<double>(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < cols; ++c) means_[c] += row[c];
  }
  for (auto& m : means_) m /= n;
  // Compiled with -ffp-contract=off (src/ml/CMakeLists.txt): each row adds
  // its square as one written fma, so the sum is the same bits on every
  // backend.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      const double d = row[c] - means_[c];
      stddevs_[c] = std::fma(d, d, stddevs_[c]);
    }
  }
  for (auto& s : stddevs_) {
    s = std::sqrt(s / n);
    if (s < 1e-12) s = 1.0;  // constant column
  }
}

void StandardScaler::transform_inplace(Matrix& x) const {
  if (x.cols() != width())
    throw std::invalid_argument("StandardScaler: width mismatch");
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto row = x.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c)
      row[c] = (row[c] - means_[c]) / stddevs_[c];
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  Matrix out = x;
  transform_inplace(out);
  return out;
}

void StandardScaler::transform_to(const Matrix& x, Matrix& out) const {
  if (x.cols() != width())
    throw std::invalid_argument("StandardScaler: width mismatch");
  out.reshape(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c)
      dst[c] = (src[c] - means_[c]) / stddevs_[c];
  }
}

void StandardScaler::restore(std::vector<double> means,
                             std::vector<double> stddevs) {
  if (means.size() != stddevs.size())
    throw std::invalid_argument("StandardScaler::restore: size mismatch");
  means_ = std::move(means);
  stddevs_ = std::move(stddevs);
}

double LogTargetTransform::forward(double y) {
  if (y <= 0.0)
    throw std::domain_error("LogTargetTransform: non-positive target");
  return std::log(y);
}

double LogTargetTransform::inverse(double y) noexcept {
  return common::math::exp(y);
}

}  // namespace pt::ml
