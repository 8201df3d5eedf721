// A timing-only measurement validates and prices a launch but never runs its
// body, so measuring must not build a benchmark's functional data: the
// inputs, images and outputs that only kernel bodies, verify() and
// reference() read (tens of MiB at paper geometry). This file replaces the
// global operator new to count the allocations of 1 MiB or more that the
// test's thread makes while counting is armed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/convolution.hpp"
#include "benchmarks/registry.hpp"
#include "benchmarks/stereo.hpp"
#include "common/rng.hpp"

namespace {

constexpr std::size_t kLargeAllocation = std::size_t{1} << 20;
thread_local bool t_counting = false;
thread_local int t_large_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (t_counting && size >= kLargeAllocation) ++t_large_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so a sanitizer's allocator never sees
// one half of a new/delete pair.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}

namespace pt::benchkit {
namespace {

/// Counts this thread's allocations of 1 MiB or more while it lives.
class LargeAllocationCounter {
 public:
  LargeAllocationCounter() {
    t_large_allocations = 0;
    t_counting = true;
  }
  ~LargeAllocationCounter() { t_counting = false; }
  LargeAllocationCounter(const LargeAllocationCounter&) = delete;
  LargeAllocationCounter& operator=(const LargeAllocationCounter&) = delete;

  [[nodiscard]] int count() const noexcept { return t_large_allocations; }
};

clsim::Device k40() {
  static const clsim::Platform platform = archsim::default_platform();
  return platform.device_by_name(archsim::kNvidiaK40);
}

/// Measures `n` random configurations; returns how many were valid.
int measure_random(BenchmarkEvaluator& eval, int n, std::uint64_t seed) {
  common::Rng rng(seed);
  int valid = 0;
  for (int i = 0; i < n; ++i)
    valid += eval.measure(eval.space().random(rng)).valid ? 1 : 0;
  return valid;
}

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

TEST(TimingOnlyMeasurement, BuildsNoFunctionalData) {
  std::unique_ptr<TunableBenchmark> conv_bench;
  std::unique_ptr<TunableBenchmark> ray_bench;
  std::unique_ptr<TunableBenchmark> stereo_bench;
  int large = 0;
  {
    const LargeAllocationCounter counter;
    conv_bench = make_benchmark("convolution");
    ray_bench = make_benchmark("raycasting");
    stereo_bench = make_benchmark("stereo");
    for (const TunableBenchmark* bench :
         {conv_bench.get(), ray_bench.get(), stereo_bench.get()}) {
      BenchmarkEvaluator eval(*bench, k40());
      EXPECT_GT(measure_random(eval, 200, 7), 0) << bench->name();
    }
    large = counter.count();
  }
  EXPECT_EQ(large, 0) << "allocations of 1 MiB or more while measuring";

  // The first functional use still builds the per-pixel functions' inputs.
  const auto& conv = dynamic_cast<const ConvolutionBenchmark&>(*conv_bench);
  const ConvolutionBenchmark::Geometry cg = conv.geometry();
  std::vector<float> input(cg.width * cg.height);
  for (std::size_t y = 0; y < cg.height; ++y)
    for (std::size_t x = 0; x < cg.width; ++x)
      input[y * cg.width + x] = ConvolutionBenchmark::input_value(x, y);
  EXPECT_TRUE(same_bits(conv.input(), input));

  const auto& stereo = dynamic_cast<const StereoBenchmark&>(*stereo_bench);
  const StereoBenchmark::Geometry sg = stereo.geometry();
  std::vector<float> left(sg.width * sg.height);
  for (std::size_t y = 0; y < sg.height; ++y)
    for (std::size_t x = 0; x < sg.width; ++x)
      left[y * sg.width + x] = StereoBenchmark::left_value(x, y);
  EXPECT_TRUE(same_bits(stereo.left(), left));
}

TEST(TimingOnlyMeasurement, SmallGeometriesThenVerifyWithTheirErrors) {
  // Measuring first must not change what a functional run computes: on the
  // first 4 configurations that Rng(11) draws and the K40 accepts, each error
  // equals a fresh instance's and stays within the recorded one. Convolution
  // and stereo are exact. Raycasting's kernel and reference round their
  // blending alike except where the compiler contracts the two into
  // different fmas: 2^-23 in the AVX Release builds, 0 in the scalar and
  // tsan ones.
  struct Case {
    const char* name;
    std::vector<tuner::Configuration> configs;
    double max_error;
  };
  const std::vector<Case> cases = {
      {"convolution",
       {{{2, 1, 2, 8, 0, 0, 1, 1, 1}},
        {{32, 16, 32, 32, 0, 0, 1, 0, 0}},
        {{16, 8, 4, 8, 0, 0, 0, 1, 0}},
        {{128, 1, 2, 8, 1, 0, 0, 1, 0}}},
       0.0},
      {"raycasting",
       {{{2, 1, 2, 8, 0, 0, 1, 1, 1, 2}},
        {{64, 4, 4, 16, 0, 1, 1, 1, 1, 8}},
        {{2, 128, 1, 2, 0, 1, 0, 0, 1, 1}},
        {{1, 64, 8, 8, 1, 0, 0, 0, 0, 16}}},
       0x1p-23},
      {"stereo",
       {{{2, 1, 2, 8, 0, 0, 1, 1, 4, 1, 1}},
        {{4, 64, 1, 4, 1, 0, 0, 0, 8, 1, 2}},
        {{2, 2, 1, 4, 1, 0, 1, 1, 8, 2, 1}},
        {{16, 32, 32, 1, 0, 1, 0, 0, 4, 1, 2}}},
       0.0},
  };
  for (const Case& c : cases) {
    const auto measured = make_benchmark_small(c.name);
    const auto fresh = make_benchmark_small(c.name);
    BenchmarkEvaluator eval(*measured, k40());
    EXPECT_GT(measure_random(eval, 50, 7), 0) << c.name;
    for (const tuner::Configuration& config : c.configs) {
      const double error = measured->verify(k40(), config);
      EXPECT_EQ(error, fresh->verify(k40(), config)) << c.name;
      EXPECT_LE(error, c.max_error) << c.name;
    }
  }
}

}  // namespace
}  // namespace pt::benchkit
