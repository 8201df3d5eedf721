#include "ml/matrix.hpp"

#include <stdexcept>

namespace pt::ml {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_)
      throw std::out_of_range("Matrix::gather_rows: index out of range");
    const auto src = row(indices[i]);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

void Matrix::fill(double value) noexcept {
  for (auto& x : data_) x = value;
}

}  // namespace pt::ml
