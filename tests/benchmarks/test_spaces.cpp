#include <gtest/gtest.h>

#include "benchmarks/registry.hpp"

namespace pt::benchkit {
namespace {

// Table 2 of the paper: exact space sizes.
TEST(Spaces, ConvolutionMatchesPaper131K) {
  const auto b = make_benchmark_small("convolution");
  EXPECT_EQ(b->space().size(), 131072u);  // 8^4 * 2^5
  EXPECT_EQ(b->space().dimension_count(), 9u);
}

TEST(Spaces, RaycastingMatchesPaper655K) {
  const auto b = make_benchmark_small("raycasting");
  EXPECT_EQ(b->space().size(), 655360u);  // 8^4 * 2^5 * 5
  EXPECT_EQ(b->space().dimension_count(), 10u);
}

TEST(Spaces, StereoMatchesPaper2359K) {
  const auto b = make_benchmark_small("stereo");
  EXPECT_EQ(b->space().size(), 2359296u);  // 8^4 * 2^4 * 4*3*3
  EXPECT_EQ(b->space().dimension_count(), 11u);
}

TEST(Spaces, AllBenchmarksShareTheCommonParameters) {
  // Table 2 "all": work-group size and outputs per thread, x and y,
  // each from {1..128} powers of two.
  for (const auto& name : benchmark_names()) {
    const auto b = make_benchmark_small(name);
    for (const char* param : {"WG_X", "WG_Y", "PPT_X", "PPT_Y"}) {
      const auto& p = b->space().parameter(b->space().index_of(param));
      EXPECT_EQ(p.values,
                (std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128}))
          << name << "/" << param;
    }
  }
}

TEST(Spaces, RaycastingUnrollLevels) {
  const auto b = make_benchmark_small("raycasting");
  const auto& unroll = b->space().parameter(b->space().index_of("UNROLL"));
  EXPECT_EQ(unroll.values, (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(Spaces, StereoUnrollLevels) {
  const auto b = make_benchmark_small("stereo");
  const auto& space = b->space();
  EXPECT_EQ(space.parameter(space.index_of("UNROLL_DISP")).values,
            (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(space.parameter(space.index_of("UNROLL_DX")).values,
            (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(space.parameter(space.index_of("UNROLL_DY")).values,
            (std::vector<int>{1, 2, 4}));
}

TEST(Registry, NamesAndErrors) {
  EXPECT_EQ(benchmark_names(),
            (std::vector<std::string>{"convolution", "raycasting", "stereo"}));
  EXPECT_THROW((void)make_benchmark("bogus"), std::invalid_argument);
  EXPECT_THROW((void)make_benchmark_small("bogus"), std::invalid_argument);
}

TEST(Registry, BuildOptionsCoverEveryDimension) {
  for (const auto& name : benchmark_names()) {
    const auto b = make_benchmark_small(name);
    common::Rng rng(1);
    const auto config = b->space().random(rng);
    const auto options = b->build_options(config);
    for (std::size_t d = 0; d < b->space().dimension_count(); ++d) {
      const auto& param = b->space().parameter(d);
      EXPECT_EQ(options.require(param.name), config.values[d])
          << name << "/" << param.name;
    }
  }
}

}  // namespace
}  // namespace pt::benchkit
