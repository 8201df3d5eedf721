#include "ml/matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

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

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (auto& x : data_) x *= scalar;
  return *this;
}

// This file is compiled with -ffp-contract=off (src/ml/CMakeLists.txt):
// every fused multiply-add is written out (simd::fmadd, std::fma), so the
// operation contract in matrix.hpp holds on every backend and with every
// compiler, FMA hardware or not.

namespace {

namespace simd = common::simd;
using simd::VecD;
constexpr std::size_t kW = simd::kWidthD;

/// Register tile of R output rows by T vectors of columns:
///   o[r][j] = fma(s[r][k], b[k * ldb + j], o[r][j]), k ascending, from
/// +0.0, for j in [0, T * kW). The accumulators stay in registers for the
/// whole k loop and are stored once.
template <std::size_t R, std::size_t T>
inline void fma_tile(const double* const* s, const double* b, std::size_t ldb,
                     std::size_t kk, double* const* o) {
  VecD acc[R][T];
  for (auto& row : acc)
    for (auto& v : row) v = VecD::zero();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* const brow = b + k * ldb;
    VecD bv[T];
    for (std::size_t t = 0; t < T; ++t) bv[t] = VecD::load(brow + t * kW);
    for (std::size_t r = 0; r < R; ++r) {
      const VecD sv = VecD::broadcast(s[r][k]);
      for (std::size_t t = 0; t < T; ++t)
        acc[r][t] = simd::fmadd(sv, bv[t], acc[r][t]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t t = 0; t < T; ++t) acc[r][t].store(o[r] + t * kW);
}

/// The same chains for one column past the last full vector.
template <std::size_t R>
inline void fma_column(const double* const* s, const double* b,
                       std::size_t ldb, std::size_t kk, double* const* o) {
  double acc[R] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const double bk = b[k * ldb];
    for (std::size_t r = 0; r < R; ++r) acc[r] = std::fma(s[r][k], bk, acc[r]);
  }
  for (std::size_t r = 0; r < R; ++r) *o[r] = acc[r];
}

/// R output rows o[r][0, b.cols()) = sum over k of s[r][k] * b(k, :), as
/// fma chains over k ascending: wide tiles first, then narrower ones, then
/// single columns.
template <std::size_t R>
void fma_rows(const double* const* s, const Matrix& b, double* const* o) {
  // At most 8 vector accumulators: with R = 4 that is 2 vectors per row.
  constexpr std::size_t kWide = R == 1 ? 4 : 2;
  const std::size_t n = b.cols();
  const std::size_t kk = b.rows();
  const double* const bd = b.flat().data();
  double* oj[R];
  const auto at = [&](std::size_t j) {
    for (std::size_t r = 0; r < R; ++r) oj[r] = o[r] + j;
    return oj;
  };
  std::size_t j = 0;
  for (; j + kWide * kW <= n; j += kWide * kW)
    fma_tile<R, kWide>(s, bd + j, n, kk, at(j));
  if constexpr (kWide > 2) {
    for (; j + 2 * kW <= n; j += 2 * kW)
      fma_tile<R, 2>(s, bd + j, n, kk, at(j));
  }
  for (; j + kW <= n; j += kW) fma_tile<R, 1>(s, bd + j, n, kk, at(j));
  for (; j < n; ++j) fma_column<R>(s, bd + j, n, kk, at(j));
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  out.resize(a.rows(), b.cols());
  // Four output rows at a time, then one.
  const std::size_t m = out.rows();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* s[4];
    double* o[4];
    for (std::size_t r = 0; r < 4; ++r) {
      s[r] = a.row(i + r).data();
      o[r] = out.row(i + r).data();
    }
    fma_rows<4>(s, b, o);
  }
  for (; i < m; ++i) {
    const double* s[1] = {a.row(i).data()};
    double* o[1] = {out.row(i).data()};
    fma_rows<1>(s, b, o);
  }
}

}  // namespace pt::ml
