#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

namespace pt::ml {
namespace {

Dataset make_dataset(std::size_t n) {
  Dataset d;
  d.x = Matrix(n, 2);
  d.y = Matrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    d.x(i, 0) = static_cast<double>(i);
    d.x(i, 1) = static_cast<double>(i) * 2.0;
    d.y(i, 0) = static_cast<double>(i) * 10.0;
  }
  return d;
}

TEST(Dataset, BasicAccessors) {
  const Dataset d = make_dataset(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.features(), 2u);
  EXPECT_EQ(d.targets(), 1u);
  EXPECT_NO_THROW(d.validate());
}

TEST(Dataset, ValidateDetectsMismatch) {
  Dataset d = make_dataset(5);
  d.y = Matrix(4, 1);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(Dataset, SubsetKeepsAlignment) {
  const Dataset d = make_dataset(10);
  const std::vector<std::size_t> idx = {7, 3, 9};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.x(i, 0), static_cast<double>(idx[i]));
    EXPECT_DOUBLE_EQ(s.y(i, 0), static_cast<double>(idx[i]) * 10.0);
  }
}

TEST(Split, FractionRespected) {
  common::Rng rng(1);
  const Dataset d = make_dataset(100);
  const Split s = train_validation_split(d, 0.8, rng);
  EXPECT_EQ(s.train.size(), 80u);
  EXPECT_EQ(s.validation.size(), 20u);
}

TEST(Split, PartitionIsDisjointAndComplete) {
  common::Rng rng(2);
  const Dataset d = make_dataset(50);
  const Split s = train_validation_split(d, 0.7, rng);
  std::set<double> seen;
  for (std::size_t i = 0; i < s.train.size(); ++i)
    seen.insert(s.train.x(i, 0));
  for (std::size_t i = 0; i < s.validation.size(); ++i)
    seen.insert(s.validation.x(i, 0));
  EXPECT_EQ(seen.size(), 50u);  // no duplicates, nothing lost
}

TEST(Split, BadFractionThrows) {
  common::Rng rng(3);
  const Dataset d = make_dataset(10);
  EXPECT_THROW(train_validation_split(d, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_validation_split(d, 1.5, rng), std::invalid_argument);
}

TEST(KFold, PartitionsIndexRange) {
  common::Rng rng(4);
  const auto folds = kfold_indices(23, 5, rng);
  EXPECT_EQ(folds.size(), 5u);
  std::set<std::size_t> all;
  for (const auto& fold : folds) {
    // Fold sizes differ by at most one.
    EXPECT_GE(fold.size(), 4u);
    EXPECT_LE(fold.size(), 5u);
    all.insert(fold.begin(), fold.end());
  }
  EXPECT_EQ(all.size(), 23u);
  EXPECT_EQ(*all.rbegin(), 22u);
}

TEST(KFold, KEqualsNGivesSingletons) {
  common::Rng rng(5);
  const auto folds = kfold_indices(4, 4, rng);
  for (const auto& fold : folds) EXPECT_EQ(fold.size(), 1u);
}

TEST(KFold, InvalidKThrows) {
  common::Rng rng(6);
  EXPECT_THROW(kfold_indices(3, 0, rng), std::invalid_argument);
  EXPECT_THROW(kfold_indices(3, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pt::ml
