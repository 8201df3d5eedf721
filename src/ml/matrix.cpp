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
// every fused multiply-add is written out (simd::fmadd, std::fma) and every
// other product rounds before its add, so the operation contract in
// matrix.hpp holds on every backend and with every compiler, FMA hardware
// or not.

namespace {

namespace simd = common::simd;
using simd::VecD;
constexpr std::size_t kW = simd::kWidthD;

/// Register tile of R output rows by T vectors of columns:
///   o[r][j] = fma(s[r][k * s_step], b[k * ldb + j], o[r][j]), k ascending,
/// from +0.0, for j in [0, T * kW). The accumulators stay in registers for
/// the whole k loop and are stored once.
template <std::size_t R, std::size_t T>
inline void fma_tile(const double* const* s, std::size_t s_step,
                     const double* b, std::size_t ldb, std::size_t kk,
                     double* const* o) {
  VecD acc[R][T];
  for (auto& row : acc)
    for (auto& v : row) v = VecD::zero();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* const brow = b + k * ldb;
    VecD bv[T];
    for (std::size_t t = 0; t < T; ++t) bv[t] = VecD::load(brow + t * kW);
    for (std::size_t r = 0; r < R; ++r) {
      const VecD sv = VecD::broadcast(s[r][k * s_step]);
      for (std::size_t t = 0; t < T; ++t)
        acc[r][t] = simd::fmadd(sv, bv[t], acc[r][t]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t t = 0; t < T; ++t) acc[r][t].store(o[r] + t * kW);
}

/// The same chains for one column past the last full vector.
template <std::size_t R>
inline void fma_column(const double* const* s, std::size_t s_step,
                       const double* b, std::size_t ldb, std::size_t kk,
                       double* const* o) {
  double acc[R] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const double bk = b[k * ldb];
    for (std::size_t r = 0; r < R; ++r)
      acc[r] = std::fma(s[r][k * s_step], bk, acc[r]);
  }
  for (std::size_t r = 0; r < R; ++r) *o[r] = acc[r];
}

/// R output rows o[r][0, b.cols()) = sum over k of s[r][k * s_step] * b(k, :),
/// as fma chains over k ascending: wide tiles first, then narrower ones,
/// then single columns.
template <std::size_t R>
void fma_rows(const double* const* s, std::size_t s_step, const Matrix& b,
              double* const* o) {
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
    fma_tile<R, kWide>(s, s_step, bd + j, n, kk, at(j));
  if constexpr (kWide > 2) {
    for (; j + 2 * kW <= n; j += 2 * kW)
      fma_tile<R, 2>(s, s_step, bd + j, n, kk, at(j));
  }
  for (; j + kW <= n; j += kW) fma_tile<R, 1>(s, s_step, bd + j, n, kk, at(j));
  for (; j < n; ++j) fma_column<R>(s, s_step, bd + j, n, kk, at(j));
}

/// out(i, :) = sum over k of a_i[k * s_step] * b(k, :) for every output row
/// i, where a_i = a0 + i * row_step: four rows at a time, then one.
void fma_all_rows(const double* a0, std::size_t row_step, std::size_t s_step,
                  const Matrix& b, Matrix& out) {
  const std::size_t m = out.rows();
  double* const od = out.flat().data();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* s[4];
    double* o[4];
    for (std::size_t r = 0; r < 4; ++r) {
      s[r] = a0 + (i + r) * row_step;
      o[r] = od + (i + r) * out.cols();
    }
    fma_rows<4>(s, s_step, b, o);
  }
  for (; i < m; ++i) {
    const double* s[1] = {a0 + i * row_step};
    double* o[1] = {od + i * out.cols()};
    fma_rows<1>(s, s_step, b, o);
  }
}

/// s + x[0]*y[0] + ... + x[n-1]*y[n-1] in order: each product rounded
/// before its add, except that an odd count ends with one fma.
inline double ordered_dot(const double* x, const double* y, std::size_t n,
                          double s) {
  const std::size_t paired = n - n % 2;
  for (std::size_t e = 0; e < paired; ++e) s += x[e] * y[e];
  if (paired != n) s = std::fma(x[paired], y[paired], s);
  return s;
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  out.resize(a.rows(), b.cols());
  fma_all_rows(a.flat().data(), a.cols(), 1, b, out);
}

void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_bt: shape mismatch");
  out.resize(a.rows(), b.rows());
  const std::size_t kk = a.cols();
  const std::size_t n = b.rows();
  if (kk == 1) {
    // The backward pass through a 1-wide output layer: out(i, j) =
    // fma(a(i, 0), b(j, 0), +0.0), four columns at a time (b's single
    // column is contiguous).
    const double* const bcol = b.flat().data();
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double ai = a(i, 0);
      const VecD av = VecD::broadcast(ai);
      double* const orow = out.row(i).data();
      std::size_t j = 0;
      for (; j + kW <= n; j += kW)
        simd::fmadd(av, VecD::load(bcol + j), VecD::zero()).store(orow + j);
      for (; j < n; ++j) orow[j] = std::fma(ai, bcol[j], 0.0);
    }
    return;
  }
  const std::size_t kv = kk - kk % kW;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* const arow = a.row(i).data();
    double* const orow = out.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      const double* const brow = b.row(j).data();
      VecD accv = VecD::zero();
      for (std::size_t k = 0; k < kv; k += kW)
        accv = simd::fmadd(VecD::load(arow + k), VecD::load(brow + k), accv);
      orow[j] = ordered_dot(arow + kv, brow + kv, kk - kv,
                            simd::hsum_pairwise(accv));
    }
  }
}

void matmul_at(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("matmul_at: shape mismatch");
  out.resize(a.cols(), b.cols());
  if (b.cols() == 1) {
    // The weight gradient of a 1-wide output layer: out's single column is
    // one contiguous row of a.cols() chains, so they run across a's
    // columns, four at a time (fma is symmetric in its product operands).
    const double* s[1] = {b.flat().data()};
    double* o[1] = {out.flat().data()};
    fma_rows<1>(s, 1, a, o);
    return;
  }
  fma_all_rows(a.flat().data(), 1, a.cols(), b, out);
}

void column_sums(const Matrix& a, std::span<double> out) {
  if (out.size() != a.cols())
    throw std::invalid_argument("column_sums: width mismatch");
  for (auto& x : out) x = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) out[c] += row[c];
  }
}

double squared_error_sum(const Matrix& y, const Matrix& target) {
  if (!y.same_shape(target))
    throw std::invalid_argument("squared_error_sum: shape mismatch");
  const auto fy = y.flat();
  const auto ft = target.flat();
  const std::size_t paired = fy.size() - fy.size() % 2;
  double acc = 0.0;
  for (std::size_t e = 0; e < paired; ++e) {
    const double d = fy[e] - ft[e];
    acc += d * d;
  }
  if (paired != fy.size()) {
    const double d = fy[paired] - ft[paired];
    acc = std::fma(d, d, acc);
  }
  return acc;
}

}  // namespace pt::ml
