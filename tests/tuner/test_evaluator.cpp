#include "tuner/evaluator.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;

TEST(CachingEvaluator, SecondMeasureIsAHit) {
  BowlEvaluator inner;
  CachingEvaluator cache(inner);
  const Configuration c = BowlEvaluator::optimum();
  const Measurement m1 = cache.measure(c);
  const Measurement m2 = cache.measure(c);
  EXPECT_EQ(inner.calls(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(m1.time_ms, m2.time_ms);
  EXPECT_EQ(cache.cache_size(), 1u);
}

TEST(CachingEvaluator, DistinctConfigsMiss) {
  BowlEvaluator inner;
  CachingEvaluator cache(inner);
  (void)cache.measure(Configuration{{1, 1, 0}});
  (void)cache.measure(Configuration{{2, 1, 0}});
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CachingEvaluator, CachesInvalidResultsToo) {
  BowlEvaluator inner(/*with_invalid=*/true);
  CachingEvaluator cache(inner);
  const Configuration bad{{128, 1, 0}};
  const Measurement m1 = cache.measure(bad);
  const Measurement m2 = cache.measure(bad);
  EXPECT_FALSE(m1.valid);
  EXPECT_FALSE(m2.valid);
  EXPECT_EQ(inner.calls(), 1u);
}

TEST(CachingEvaluator, ForwardsSpaceAndName) {
  BowlEvaluator inner;
  CachingEvaluator cache(inner);
  EXPECT_EQ(cache.name(), "bowl");
  EXPECT_EQ(cache.space().size(), inner.space().size());
}

TEST(CountingEvaluator, CountsAndCost) {
  BowlEvaluator inner(/*with_invalid=*/true);
  CountingEvaluator counter(inner);
  (void)counter.measure(Configuration{{8, 16, 2}});   // valid
  (void)counter.measure(Configuration{{128, 1, 0}});  // invalid
  EXPECT_EQ(counter.total_measurements(), 2u);
  EXPECT_EQ(counter.invalid_measurements(), 1u);
  EXPECT_GT(counter.total_cost_ms(), 0.0);
  counter.reset();
  EXPECT_EQ(counter.total_measurements(), 0u);
  EXPECT_DOUBLE_EQ(counter.total_cost_ms(), 0.0);
}

TEST(Evaluator, MeasurementCarriesStatus) {
  BowlEvaluator inner(/*with_invalid=*/true);
  const Measurement m = inner.measure(Configuration{{128, 2, 1}});
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.status, clsim::Status::kInvalidWorkGroupSize);
  EXPECT_GT(m.cost_ms, 0.0);  // failures still cost time (paper section 6)
}

TEST(CountingEvaluator, TracksRejectionReasons) {
  BowlEvaluator inner(/*with_invalid=*/true);
  CountingEvaluator counter(inner);
  (void)counter.measure(Configuration{{128, 1, 0}});
  (void)counter.measure(Configuration{{128, 2, 0}});
  (void)counter.measure(Configuration{{8, 16, 2}});
  EXPECT_EQ(counter.rejections().total(), 2u);
  EXPECT_EQ(counter.rejections().count(clsim::Status::kInvalidWorkGroupSize),
            2u);
  counter.reset();
  EXPECT_TRUE(counter.rejections().empty());
}

TEST(RejectionCounts, EmptyToString) {
  const RejectionCounts counts;
  EXPECT_TRUE(counts.empty());
  EXPECT_EQ(counts.total(), 0u);
  EXPECT_EQ(counts.to_string(), "none");
}

TEST(RejectionCounts, SortsByCountDescending) {
  RejectionCounts counts;
  counts.note(clsim::Status::kInvalidWorkGroupSize);
  for (int i = 0; i < 3; ++i) counts.note(clsim::Status::kOutOfLocalMemory);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_EQ(counts.to_string(),
            "CL_OUT_OF_LOCAL_MEMORY x3, CL_INVALID_WORK_GROUP_SIZE x1");
  const auto sorted = counts.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, clsim::Status::kOutOfLocalMemory);
  EXPECT_EQ(sorted[0].second, 3u);
}

TEST(Evaluator, DecoratorsCompose) {
  BowlEvaluator inner;
  CachingEvaluator cache(inner);
  CountingEvaluator counter(cache);
  const Configuration c = BowlEvaluator::optimum();
  (void)counter.measure(c);
  (void)counter.measure(c);
  EXPECT_EQ(counter.total_measurements(), 2u);  // counts both requests
  EXPECT_EQ(inner.calls(), 1u);                 // but only one real run
}

}  // namespace
}  // namespace pt::tuner
