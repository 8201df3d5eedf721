#pragma once

// Dense row-major matrix of doubles: datasets, feature rows and prediction
// batches. Sized for this project's workloads: batches of a few thousand
// rows, and bulk prediction over millions of configurations (done in
// batches).

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace pt::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer lists (row major); rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

  /// Copy a subset of rows (by index) into a new matrix.
  [[nodiscard]] Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// Change shape to (rows, cols) and set every element to `value`, reusing
  /// the existing allocation whenever it is large enough. This is what keeps
  /// the bulk-prediction scratch buffers allocation-free after warm-up.
  void reshape(std::size_t rows, std::size_t cols, double value = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  void fill(double value) noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pt::ml
