// clstat exactness at paper geometry: on every point of the three paper
// spaces on every catalog device (15,728,640 points), the static verdict is
// decisive (never kUnknown) and equals the driver's verdict (prepare +
// validate_launch, as BenchmarkEvaluator derives it). This is the promise
// behind each constraint set's `complete = true`, and what lets a tuner
// filter its second stage with the checker alone. The points are checked in
// blocks over the global pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/thread_pool.hpp"

namespace pt::benchkit {
namespace {

namespace az = clsim::analyze;

/// The driver's verdict, exactly as BenchmarkEvaluator derives it.
bool driver_accepts(const TunableBenchmark& bench, const clsim::Device& device,
                    const tuner::Configuration& config) {
  try {
    const LaunchPlan plan = bench.prepare(device, config);
    return plan.kernel.validate_launch(plan.global, plan.local) ==
           clsim::Status::kSuccess;
  } catch (const clsim::ClException& e) {
    if (!e.is_invalid_configuration()) throw;
    return false;
  }
}

/// Disagreements over one (benchmark, device) space; `first` is the lowest
/// flat index among them, so the report does not depend on the pool.
struct Disagreements {
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> unknown{0};
  std::mutex mutex;
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  std::string first_detail;

  void note(std::uint64_t index, std::string detail) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (index < first) {
      first = index;
      first_detail = std::move(detail);
    }
  }
};

TEST(ClstatAudit, VerdictEqualsTheDriverOnEveryPaperGeometryPoint) {
  constexpr std::uint64_t kBlock = 4096;
  const clsim::Platform platform = archsim::default_platform();
  std::uint64_t points = 0;
  for (const std::string& name : benchmark_names()) {
    const auto bench = make_benchmark(name);
    const tuner::ParamSpace& space = bench->space();
    for (const clsim::Device& device : platform.devices()) {
      const az::StaticChecker checker = make_static_checker(*bench, device);
      Disagreements found;
      const std::uint64_t blocks = (space.size() + kBlock - 1) / kBlock;
      common::global_pool().parallel_for(
          0, static_cast<std::size_t>(blocks), [&](std::size_t block) {
            const std::uint64_t begin = block * kBlock;
            const std::uint64_t end = std::min(begin + kBlock, space.size());
            for (std::uint64_t i = begin; i < end; ++i) {
              const tuner::Configuration config = space.decode(i);
              const az::ConfigVerdict verdict = check_config(checker, config);
              if (verdict.verdict == az::Verdict::kUnknown) {
                ++found.unknown;
                found.note(i, "unknown: " + space.to_string(config));
                continue;
              }
              if (verdict.proved_valid() !=
                  driver_accepts(*bench, device, config)) {
                ++found.mismatches;
                found.note(i, std::string(az::to_string(verdict.verdict)) +
                                  " (" + verdict.reason +
                                  ") against the driver: " +
                                  space.to_string(config));
              }
            }
          });
      points += space.size();
      EXPECT_EQ(found.mismatches.load(), 0u)
          << name << " on " << device.name() << ", first at "
          << found.first_detail;
      EXPECT_EQ(found.unknown.load(), 0u)
          << name << " on " << device.name() << ", first at "
          << found.first_detail;
    }
  }
  EXPECT_EQ(points, 15'728'640u);  // 5 devices x the three paper spaces
}

}  // namespace
}  // namespace pt::benchkit
