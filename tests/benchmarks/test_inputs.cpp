// Benchmark inputs are built on first use, row by row on the asking thread,
// with libm terms shared along a row or a column. Every pixel must equal the
// per-pixel functions bit for bit — left_value and true_disparity for stereo,
// input_value for convolution — at any pool size, for the paper geometries and
// for odd ones; builds running concurrently must give the same pixels, and
// concurrent first uses of one instance must share one build.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "benchmarks/convolution.hpp"
#include "benchmarks/stereo.hpp"
#include "common/thread_pool.hpp"

namespace pt::benchkit {
namespace {

using ConvGeometry = ConvolutionBenchmark::Geometry;
using StereoGeometry = StereoBenchmark::Geometry;

constexpr std::size_t kPoolSizes[] = {1, 4};

::testing::AssertionResult same_bits(std::span<const float> got,
                                     const std::vector<float>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " pixels, want " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i]))
      return ::testing::AssertionFailure()
             << "pixel " << i << " is " << got[i] << ", want " << want[i];
  return ::testing::AssertionSuccess();
}

/// The convolution inputs computed pixel by pixel from input_value.
struct ConvReference {
  std::vector<float> input;
  std::vector<float> padded;
};

ConvReference conv_reference(const ConvGeometry& g) {
  const std::size_t w = g.width;
  const std::size_t h = g.height;
  const auto r = static_cast<long>(g.radius);
  ConvReference want;
  want.input.resize(w * h);
  for (std::size_t y = 0; y < h; ++y)
    for (std::size_t x = 0; x < w; ++x)
      want.input[y * w + x] = ConvolutionBenchmark::input_value(x, y);
  const std::size_t pw = w + 2 * static_cast<std::size_t>(r);
  const std::size_t ph = h + 2 * static_cast<std::size_t>(r);
  want.padded.resize(pw * ph);
  for (std::size_t py = 0; py < ph; ++py) {
    for (std::size_t px = 0; px < pw; ++px) {
      const auto sx = static_cast<std::size_t>(std::clamp<long>(
          static_cast<long>(px) - r, 0, static_cast<long>(w) - 1));
      const auto sy = static_cast<std::size_t>(std::clamp<long>(
          static_cast<long>(py) - r, 0, static_cast<long>(h) - 1));
      want.padded[py * pw + px] = want.input[sy * w + sx];
    }
  }
  return want;
}

::testing::AssertionResult same_inputs(const ConvolutionBenchmark& bench,
                                       const ConvReference& want) {
  if (auto r = same_bits(bench.input(), want.input); !r)
    return r << " (input)";
  if (auto r = same_bits(bench.padded(), want.padded); !r)
    return r << " (padded)";
  if (auto r = same_bits(bench.image(), want.input); !r)
    return r << " (image)";
  return ::testing::AssertionSuccess();
}

/// The stereo inputs computed pixel by pixel: left_value, and left_value at
/// the planted disparity's shift, clamped at the right edge.
struct StereoReference {
  std::vector<float> left;
  std::vector<float> right;
  std::size_t clamped = 0;  // right pixels whose shift hit the right edge
};

StereoReference stereo_reference(const StereoGeometry& g) {
  const std::size_t w = g.width;
  StereoReference want;
  want.left.resize(w * g.height);
  want.right.resize(w * g.height);
  for (std::size_t y = 0; y < g.height; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      want.left[y * w + x] = StereoBenchmark::left_value(x, y);
      const int d = StereoBenchmark::true_disparity(x, y, g.max_disparity);
      std::size_t sx = x + static_cast<std::size_t>(d);
      if (sx >= w) {
        sx = w - 1;
        ++want.clamped;
      }
      want.right[y * w + x] = StereoBenchmark::left_value(sx, y);
    }
  }
  return want;
}

::testing::AssertionResult same_inputs(const StereoBenchmark& bench,
                                       const StereoReference& want) {
  if (auto r = same_bits(bench.left(), want.left); !r) return r << " (left)";
  if (auto r = same_bits(bench.right(), want.right); !r)
    return r << " (right)";
  if (auto r = same_bits(bench.left_image(), want.left); !r)
    return r << " (left image)";
  if (auto r = same_bits(bench.right_image(), want.right); !r)
    return r << " (right image)";
  return ::testing::AssertionSuccess();
}

class BenchmarkInputs : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }

  static void expect_exact(const ConvGeometry& g) {
    const ConvReference want = conv_reference(g);
    for (const std::size_t threads : kPoolSizes) {
      common::set_global_pool_threads(threads);
      EXPECT_TRUE(same_inputs(ConvolutionBenchmark(g), want))
          << g.width << "x" << g.height << " radius " << g.radius << ", "
          << threads << " pool threads";
    }
  }

  static void expect_exact(const StereoGeometry& g,
                           bool expect_clamped = true) {
    const StereoReference want = stereo_reference(g);
    if (expect_clamped) {
      EXPECT_GT(want.clamped, 0u) << "no shift clamped at the right edge";
    }
    for (const std::size_t threads : kPoolSizes) {
      common::set_global_pool_threads(threads);
      EXPECT_TRUE(same_inputs(StereoBenchmark(g), want))
          << g.width << "x" << g.height << " max disparity "
          << g.max_disparity << ", " << threads << " pool threads";
    }
  }
};

// The odd geometries' row tasks are blocks of at least 2^16 pixels (32 rows
// at width 2048, 64 at width 1024, 65536 at width 1): edge cases for any
// split of the rows, such as a parallel fill.

TEST_F(BenchmarkInputs, ConvolutionPaperGeometryMatchesInputValue) {
  expect_exact(ConvGeometry{});
}

TEST_F(BenchmarkInputs, ConvolutionOddGeometriesMatchInputValue) {
  expect_exact(ConvGeometry{1, 1, 2});
  expect_exact(ConvGeometry{1, 70001, 3});   // width 1, two row tasks
  expect_exact(ConvGeometry{70001, 1, 0});   // height 1
  expect_exact(ConvGeometry{1000, 333, 3});  // 66 rows per task, 5 + 3 rows
  expect_exact(ConvGeometry{777, 200, 0});   // 85 rows per task, 2 + 30 rows
  expect_exact(ConvGeometry{48, 32, 2});     // the small geometry
}

TEST_F(BenchmarkInputs, StereoPaperGeometryMatchesPerPixelFunctions) {
  expect_exact(StereoGeometry{});
}

TEST_F(BenchmarkInputs, StereoOddGeometriesMatchPerPixelFunctions) {
  expect_exact(StereoGeometry{1, 1, 64, 2}, /*expect_clamped=*/false);
  expect_exact(StereoGeometry{1, 70001, 8, 2});    // width 1, two row tasks
  expect_exact(StereoGeometry{70001, 1, 64, 2});   // height 1
  expect_exact(StereoGeometry{513, 300, 64, 2});   // 128 rows per task
  expect_exact(StereoGeometry{100, 700, 128, 2});  // shifts past the width
  expect_exact(StereoGeometry{32, 24, 8, 2});      // the small geometry
}

TEST_F(BenchmarkInputs, ConcurrentBuildsMatchPerPixelFunctions) {
  // Serve workers build evaluators concurrently: from pool tasks and from
  // plain threads. Every build must give the pixels of a serial build, which
  // computes each one with the per-pixel functions.
  const StereoReference stereo_want = stereo_reference(StereoGeometry{});
  const ConvReference conv_want = conv_reference(ConvGeometry{});
  const auto build_both = [&] {
    return same_inputs(StereoBenchmark(), stereo_want) &&
           same_inputs(ConvolutionBenchmark(), conv_want);
  };
  common::set_global_pool_threads(4);

  std::vector<char> task_ok(4, 0);
  common::global_pool().parallel_for(
      0, task_ok.size(), [&](std::size_t i) { task_ok[i] = build_both(); });
  for (std::size_t i = 0; i < task_ok.size(); ++i)
    EXPECT_TRUE(task_ok[i]) << "pool task " << i;

  bool thread_ok[2] = {false, false};
  std::thread a([&] { thread_ok[0] = build_both(); });
  std::thread b([&] { thread_ok[1] = build_both(); });
  a.join();
  b.join();
  EXPECT_TRUE(thread_ok[0]);
  EXPECT_TRUE(thread_ok[1]);
}

TEST_F(BenchmarkInputs, ConcurrentFirstUsesShareOneBuild) {
  // The views of one fresh instance of each, asked for at once from 4 pool
  // tasks and 2 plain threads: one caller builds while the others wait, and
  // every caller must see the same buffers holding the per-pixel functions'
  // pixels. On a 2-thread pool at least one of the 4 tasks is still queued
  // while a task builds, so a build that waited for the pool would hang.
  const StereoReference stereo_want = stereo_reference(StereoGeometry{});
  const ConvReference conv_want = conv_reference(ConvGeometry{});
  common::set_global_pool_threads(2);
  const StereoBenchmark stereo;
  const ConvolutionBenchmark conv;

  struct Seen {
    bool same_pixels = false;
    std::vector<const float*> buffers;
  };
  const auto use_both = [&] {
    Seen seen;
    seen.same_pixels =
        same_inputs(stereo, stereo_want) && same_inputs(conv, conv_want);
    seen.buffers = {stereo.left().data(),       stereo.right().data(),
                    stereo.left_image().data(), stereo.right_image().data(),
                    conv.input().data(),        conv.padded().data(),
                    conv.image().data()};
    return seen;
  };
  std::vector<Seen> seen(6);
  std::thread a([&] { seen[4] = use_both(); });
  std::thread b([&] { seen[5] = use_both(); });
  common::global_pool().parallel_for(
      0, 4, [&](std::size_t i) { seen[i] = use_both(); });
  a.join();
  b.join();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i].same_pixels) << "caller " << i;
    EXPECT_EQ(seen[i].buffers, seen[0].buffers) << "caller " << i;
  }
}

TEST_F(BenchmarkInputs, SmallImagesStayOnTheCallingThread) {
  // A one-thread pool busy with one blocked task and another queued behind
  // it: a build that enqueued its rows would help drain the queue, pick up
  // the blocked task first and stall until release. Small images must not
  // touch the pool at all; 256x256 is exactly one task.
  common::set_global_pool_threads(1);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  auto first = common::global_pool().submit([released] { released.wait(); });
  auto second = common::global_pool().submit([released] { released.wait(); });

  auto built = std::async(std::launch::async, [] {
    const StereoBenchmark stereo(StereoGeometry{32, 24, 8, 2});
    const ConvolutionBenchmark conv(ConvGeometry{256, 256, 2});
    return stereo.left().size() + conv.input().size();
  });
  const bool finished =
      built.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  first.get();
  second.get();
  EXPECT_TRUE(finished) << "a small build waited for the pool";
  EXPECT_EQ(built.get(), 32u * 24u + 256u * 256u);
}

}  // namespace
}  // namespace pt::benchkit
