#include "ml/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "training_reference.hpp"

namespace pt::ml {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, RowSpanIsMutableView) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(Matrix, GatherRows) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<std::size_t> idx = {2, 0};
  const Matrix g = m.gather_rows(idx);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 2.0);
}

TEST(Matrix, GatherRowsOutOfRangeThrows) {
  const Matrix m(2, 2);
  const std::vector<std::size_t> idx = {5};
  EXPECT_THROW(m.gather_rows(idx), std::out_of_range);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{1.0, 1.0}, {1.0, 1.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Matrix, Fill) {
  Matrix m(2, 2, 5.0);
  m.fill(0.0);
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Matmul, KnownProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  Matrix c;
  matmul(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matmul, NonSquare) {
  const Matrix a = {{1.0, 2.0, 3.0}};        // 1x3
  const Matrix b = {{1.0}, {2.0}, {3.0}};    // 3x1
  Matrix c;
  matmul(a, b, c);
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(0, 0), 14.0);
}

TEST(Matmul, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  Matrix c;
  EXPECT_THROW(matmul(a, b, c), std::invalid_argument);
}

TEST(Matmul, TransposedVariantsAgree) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};  // 3x2
  const Matrix b = {{1.0, -1.0}, {2.0, 0.5}, {0.0, 3.0}}; // 3x2

  // a^T * b via matmul_at equals explicit transpose multiply.
  Matrix at_b;
  matmul_at(a, b, at_b);
  EXPECT_EQ(at_b.rows(), 2u);
  EXPECT_EQ(at_b.cols(), 2u);
  EXPECT_DOUBLE_EQ(at_b(0, 0), 1.0 * 1.0 + 3.0 * 2.0 + 5.0 * 0.0);
  EXPECT_DOUBLE_EQ(at_b(1, 1), 2.0 * -1.0 + 4.0 * 0.5 + 6.0 * 3.0);

  // a * b^T via matmul_bt.
  Matrix a_bt;
  matmul_bt(a, b, a_bt);
  EXPECT_EQ(a_bt.rows(), 3u);
  EXPECT_EQ(a_bt.cols(), 3u);
  EXPECT_DOUBLE_EQ(a_bt(0, 0), 1.0 * 1.0 + 2.0 * -1.0);
  EXPECT_DOUBLE_EQ(a_bt(2, 1), 5.0 * 2.0 + 6.0 * 0.5);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Number of elements whose bit patterns differ (shapes must match).
std::size_t bit_mismatches(const Matrix& got, const Matrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  if (!got.same_shape(want)) return got.size() + want.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    bad += bits(got.flat()[i]) != bits(want.flat()[i]);
  return bad;
}

/// Uniform values in [-2, 2] with about one element in ten a signed zero.
void fill_with_zeros(Matrix& m, common::Rng& rng) {
  for (auto& x : m.flat()) {
    const double u = rng.uniform();
    x = u < 0.05 ? 0.0 : u < 0.1 ? -0.0 : rng.uniform(-2.0, 2.0);
  }
}

// The register-blocked kernels against the element-by-element references
// (tests/ml/training_reference.cpp), bit for bit, on sizes that straddle
// every tile and remainder boundary.
TEST(Matmul, BlockedKernelsMatchNaiveReference) {
  common::Rng rng(77);
  const std::size_t n = 150, k = 140, p = 130;
  Matrix a(n, k);
  Matrix b(k, p);
  fill_with_zeros(a, rng);
  fill_with_zeros(b, rng);

  Matrix out;
  matmul(a, b, out);
  EXPECT_EQ(bit_mismatches(out, reference::matmul(a, b)), 0u);
  matmul_bt(a, a, out);
  EXPECT_EQ(bit_mismatches(out, reference::matmul_bt(a, a)), 0u);
  matmul_at(a, a, out);
  EXPECT_EQ(bit_mismatches(out, reference::matmul_at(a, a)), 0u);
}

TEST(Matmul, KernelsMatchRoundingReferenceOnAllSmallShapes) {
  common::Rng rng(91);
  Matrix out;
  for (std::size_t width = 1; width <= 33; ++width) {
    for (std::size_t shared = 1; shared <= 140; ++shared) {
      const std::size_t rows = 1 + rng.below(9);
      Matrix a(rows, shared);
      Matrix b(shared, width);
      Matrix bt(width, shared);
      Matrix at(shared, rows);
      fill_with_zeros(a, rng);
      fill_with_zeros(b, rng);
      fill_with_zeros(bt, rng);
      fill_with_zeros(at, rng);
      matmul(a, b, out);
      ASSERT_EQ(bit_mismatches(out, reference::matmul(a, b)), 0u)
          << "matmul rows=" << rows << " shared=" << shared
          << " width=" << width;
      matmul_bt(a, bt, out);
      ASSERT_EQ(bit_mismatches(out, reference::matmul_bt(a, bt)), 0u)
          << "matmul_bt rows=" << rows << " shared=" << shared
          << " width=" << width;
      matmul_at(at, b, out);
      ASSERT_EQ(bit_mismatches(out, reference::matmul_at(at, b)), 0u)
          << "matmul_at rows=" << rows << " shared=" << shared
          << " width=" << width;
    }
  }
}

// Every chain starts from +0.0, so products that are all -0.0 sum to +0.0
// (fma(-0, x, +0) = +0), in every tile and remainder lane.
TEST(Matmul, NegativeZeroProductsSumToPositiveZero) {
  for (std::size_t shared : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    const Matrix a(5, shared, -0.0);
    const Matrix b(shared, 30, 1.5);
    const Matrix bt(30, shared, 1.5);
    const Matrix ones(5, 30, 1.5);
    Matrix out;
    matmul(a, b, out);
    for (double x : out.flat()) EXPECT_EQ(bits(x), bits(0.0));
    matmul_bt(a, bt, out);
    for (double x : out.flat()) EXPECT_EQ(bits(x), bits(0.0));
    matmul_at(a, ones, out);
    for (double x : out.flat()) EXPECT_EQ(bits(x), bits(0.0));
    matmul_at(a, Matrix(5, 1, 1.5), out);  // the 1-wide output layer path
    for (double x : out.flat()) EXPECT_EQ(bits(x), bits(0.0));
  }
}

TEST(Matrix, SquaredErrorSumMatchesRoundingReference) {
  const Matrix y = {{1.0, 2.0, 3.0}};
  const Matrix zero(1, 3);
  EXPECT_EQ(squared_error_sum(y, zero), 14.0);
  EXPECT_THROW((void)squared_error_sum(y, Matrix(3, 1)), std::invalid_argument);
  common::Rng rng(5);
  for (std::size_t n = 1; n <= 40; ++n) {
    Matrix a(n, 1);
    Matrix t(n, 1);
    fill_with_zeros(a, rng);
    fill_with_zeros(t, rng);
    EXPECT_EQ(bits(squared_error_sum(a, t)),
              bits(reference::squared_error_sum(a, t)))
        << "n=" << n;
  }
}

TEST(Matrix, ReshapeReusesAllocationAndZeroes) {
  Matrix m(4, 4, 7.0);
  m.reshape(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
  m.reshape(5, 2, 1.5);
  EXPECT_EQ(m.size(), 10u);
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 1.5);
}

TEST(Matrix, ColumnSums) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> sums(2);
  column_sums(m, sums);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[1], 6.0);
}

}  // namespace
}  // namespace pt::ml
