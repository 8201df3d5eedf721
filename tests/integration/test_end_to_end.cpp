// End-to-end integration: the full pipeline of the paper — parameterized
// benchmark -> simulated OpenCL runtime -> ANN model -> two-stage tuner —
// exercised on the real device catalog.

#include <gtest/gtest.h>

#include <memory>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/search.hpp"

namespace pt {
namespace {

tuner::AutoTunerOptions fast_tuner(std::size_t n, std::size_t m) {
  tuner::AutoTunerOptions o;
  o.training_samples = n;
  o.second_stage_size = m;
  o.model.ensemble.k = 3;
  o.model.ensemble.trainer.common.max_epochs = 250;
  // On GPU-like devices the model often ranks oversized (invalid)
  // work-groups fastest — the paper's stage-2 failure mode. The validity
  // classifier screens those out during the streaming prediction scan.
  o.validity_filter = true;
  return o;
}

class DeviceEndToEndTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeviceEndToEndTest, TunerBeatsMedianRandomConfigOnConvolution) {
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device = platform.device_by_name(GetParam());
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator inner(*bench, device);
  tuner::CachingEvaluator eval(inner);

  common::Rng rng(17);
  // Reference: the median of valid random configurations.
  std::vector<double> random_times;
  while (random_times.size() < 60) {
    const auto m = eval.measure(eval.space().random(rng));
    if (m.valid) random_times.push_back(m.time_ms);
  }
  const double median = common::quantile(random_times, 0.5);

  const tuner::AutoTuner tuner_engine(fast_tuner(400, 40));
  const auto result = tuner_engine.tune(eval, tuner::TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success) << GetParam();
  EXPECT_LT(result.best_time_ms, median * 0.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PaperDevices, DeviceEndToEndTest,
    ::testing::Values(archsim::kIntelI7, archsim::kNvidiaK40,
                      archsim::kAmdHd7970),
    [](const auto& param_info) {
      std::string name = param_info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(EndToEnd, StaticPreFilterPrunesOnARealBenchmark) {
  // Acceptance check for the clstat pre-filter: on a real benchmark the
  // static checker must discharge a nonzero fraction of the scanned
  // configurations before feature encoding, and the tune must still succeed.
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device = platform.device_by_name(archsim::kNvidiaK40);
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(*bench, device);

  tuner::AutoTunerOptions options = fast_tuner(400, 40);
  options.static_checker =
      std::make_shared<clsim::analyze::StaticChecker>(
          benchkit::make_static_checker(*bench, device));

  common::Rng rng(29);
  const tuner::AutoTuner tuner_engine(options);
  const auto result = tuner_engine.tune(eval, tuner::TuneRun::with_rng(rng));
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.static_checked, 0u);
  EXPECT_GT(result.static_pruned, 0u);
  // Convolution's constraint set is complete, so nothing is left unknown.
  EXPECT_EQ(result.static_unknown, 0u);
  EXPECT_EQ(result.static_checked,
            result.static_pruned + result.static_proved_valid);
}

TEST(EndToEnd, BestConfigsDifferAcrossDevices) {
  // The motivational premise (section 2): each device has its own optimum.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  std::vector<tuner::Configuration> bests;
  for (const char* name :
       {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970}) {
    benchkit::BenchmarkEvaluator eval(*bench,
                                      platform.device_by_name(name));
    const auto r = tuner::exhaustive_search(eval);
    ASSERT_TRUE(r.success) << name;
    bests.push_back(r.best_config);
  }
  EXPECT_NE(bests[0], bests[1]);
  EXPECT_NE(bests[0], bests[2]);
}

TEST(EndToEnd, WrongDeviceConfigCausesSlowdown) {
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");

  benchkit::BenchmarkEvaluator cpu_eval(
      *bench, platform.device_by_name(archsim::kIntelI7));
  benchkit::BenchmarkEvaluator gpu_eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  const auto cpu_best = tuner::exhaustive_search(cpu_eval);
  const auto gpu_best = tuner::exhaustive_search(gpu_eval);
  ASSERT_TRUE(cpu_best.success && gpu_best.success);

  // The GPU's best configuration on the CPU is far from the CPU optimum.
  const auto cross = cpu_eval.measure(gpu_best.best_config);
  ASSERT_TRUE(cross.valid);
  EXPECT_GT(cross.time_ms / cpu_best.best_time_ms, 2.0);
}

TEST(EndToEnd, MeasurementsAreReproducibleUpToJitter) {
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  const tuner::Configuration c{{16, 8, 2, 2, 1, 1, 1, 1, 0}};
  const auto m1 = eval.measure(c);
  const auto m2 = eval.measure(c);
  ASSERT_TRUE(m1.valid && m2.valid);
  // Same configuration, same device: only measurement jitter differs.
  EXPECT_NEAR(m1.time_ms, m2.time_ms, 0.2 * m1.time_ms);
}

TEST(EndToEnd, NoiseFreePlatformIsFullyDeterministic) {
  archsim::TimingModel::Options opts;
  opts.measurement_noise = false;
  const clsim::Platform platform = archsim::default_platform(opts);
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kAmdHd7970));
  const tuner::Configuration c{{16, 8, 2, 2, 1, 0, 1, 1, 1}};
  EXPECT_DOUBLE_EQ(eval.measure(c).time_ms, eval.measure(c).time_ms);
}

TEST(EndToEnd, StereoOnGpusHasManyInvalidConfigs) {
  // Section 6: stereo's local tiles overflow GPU local memory often; the
  // CPU (32 KB but 8192-item groups) rejects far fewer configurations.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("stereo");
  common::Rng rng(23);
  auto invalid_rate = [&](const char* device_name) {
    benchkit::BenchmarkEvaluator eval(
        *bench, platform.device_by_name(device_name));
    int invalid = 0;
    const int n = 400;
    common::Rng local_rng(rng.fork());
    for (int i = 0; i < n; ++i) {
      if (!eval.measure(eval.space().random(local_rng)).valid) ++invalid;
    }
    return static_cast<double>(invalid) / n;
  };
  const double cpu_rate = invalid_rate(archsim::kIntelI7);
  const double amd_rate = invalid_rate(archsim::kAmdHd7970);
  EXPECT_GT(amd_rate, cpu_rate);
  EXPECT_GT(amd_rate, 0.3);
}

TEST(EndToEnd, DataGatheringCostDominatedByCompiles) {
  // Section 6: gathering 2000 samples takes ~30 min while training takes
  // ~1 min; the gap is mostly kernel compilation. Check compile time
  // dominates execution time in the measured cost.
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator inner(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  tuner::CountingEvaluator eval(inner);
  common::Rng rng(29);
  for (int i = 0; i < 50; ++i) (void)eval.measure(eval.space().random(rng));
  EXPECT_GT(eval.total_cost_ms(),
            inner.queue().total_kernel_ms() * 5.0);
}

}  // namespace
}  // namespace pt
