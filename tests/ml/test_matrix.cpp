#include "ml/matrix.hpp"

#include <gtest/gtest.h>

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

TEST(Matrix, Fill) {
  Matrix m(2, 2, 5.0);
  m.fill(0.0);
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
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

}  // namespace
}  // namespace pt::ml
