// Tests for the batched fp32 scan path, the tuner's default top-M engine
// (tuner/scan.hpp + tuner/model.hpp): top-M selection must be identical to
// the fp64 reference — indices and predicted values — at every thread
// count, with and without a validity filter; the measured fp32 error must
// stay within the engine's certified bound (also for the paper's default
// ensemble on every benchmark x device); the default AutoTuner,
// IterativeTuner and input-aware scans must reproduce explicit-fp64 results
// bit for bit; and the engine-less scan overloads must stay fp64.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "benchmarks/registry.hpp"
#include "common/thread_pool.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/input_aware.hpp"
#include "tuner/iterative.hpp"
#include "tuner/model.hpp"
#include "tuner/scan.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

/// 8*8*4*6*6*8 = 73728 configurations: crosses the 65536-row chunk boundary
/// so the merge path and a partial tail chunk are both exercised.
ParamSpace big_space() {
  ParamSpace space;
  space.add("A", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("B", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("C", {0, 1, 2, 3});
  space.add("D", {1, 2, 3, 4, 5, 6});
  space.add("E", {1, 2, 4, 8, 16, 32});
  space.add("F", {1, 2, 3, 4, 5, 6, 7, 8});
  return space;
}

double synthetic_time_ms(const Configuration& c) {
  const double a = std::log2(static_cast<double>(c.values[0]));
  const double b = std::log2(static_cast<double>(c.values[1]));
  const double d = static_cast<double>(c.values[3]);
  const double e = std::log2(static_cast<double>(c.values[4]));
  return 1.0 + (a - 3.0) * (a - 3.0) + 0.3 * (b - 2.0) * (b - 2.0) +
         0.1 * d + 0.2 * (e - 1.0) * (e - 1.0) +
         0.05 * static_cast<double>(c.values[2]) +
         0.02 * static_cast<double>(c.values[5]);
}

/// big_space() measured through synthetic_time_ms.
class SyntheticEvaluator final : public Evaluator {
 public:
  [[nodiscard]] const ParamSpace& space() const override { return space_; }
  [[nodiscard]] std::string name() const override { return "synthetic"; }
  [[nodiscard]] Measurement measure(const Configuration& config) override {
    Measurement m;
    m.valid = true;
    m.time_ms = synthetic_time_ms(config);
    m.cost_ms = m.time_ms;
    return m;
  }

 private:
  ParamSpace space_ = big_space();
};

AnnPerformanceModel trained_model(const ParamSpace& space) {
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{12, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 150;
  opts.ensemble.trainer.common.patience = 40;
  AnnPerformanceModel model(opts);
  common::Rng rng(99);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 150);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);
  return model;
}

ScanOptions options_for(ScanInference inference) {
  ScanOptions scan;
  scan.inference = inference;
  return scan;
}

ScanOptions fp64_options() { return options_for(ScanInference::kScalarFp64); }
ScanOptions fp32_options() { return options_for(ScanInference::kBatchedFp32); }

void expect_same_selection(const TopMScanResult& fp64,
                           const TopMScanResult& fp32) {
  ASSERT_EQ(fp64.top.size(), fp32.top.size());
  for (std::size_t i = 0; i < fp64.top.size(); ++i) {
    EXPECT_EQ(fp64.top[i].index, fp32.top[i].index) << "rank " << i;
    // The fp32 path re-ranks through the fp64 reference, so predicted values
    // of the selection are bit-identical, not merely close.
    EXPECT_EQ(fp64.top[i].predicted_ms, fp32.top[i].predicted_ms)
        << "rank " << i;
  }
  ASSERT_EQ(fp64.top_unfiltered.size(), fp32.top_unfiltered.size());
  for (std::size_t i = 0; i < fp64.top_unfiltered.size(); ++i) {
    EXPECT_EQ(fp64.top_unfiltered[i].index, fp32.top_unfiltered[i].index);
    EXPECT_EQ(fp64.top_unfiltered[i].predicted_ms,
              fp32.top_unfiltered[i].predicted_ms);
  }
}

class ScanBatchedTest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_F(ScanBatchedTest, Fp32IsTheDefaultTopMEngine) {
  EXPECT_EQ(ScanOptions{}.inference, ScanInference::kBatchedFp32);
  EXPECT_EQ(AnnPerformanceModel::Options{}.scan.inference,
            ScanInference::kBatchedFp32);
  EXPECT_EQ(InputAwarePerformanceModel::Options{}.scan.inference,
            ScanInference::kBatchedFp32);
}

TEST_F(ScanBatchedTest, TopMMatchesFp64AtOneAndFourThreads) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    model.set_scan_options(fp64_options());
    const auto fp64 = model.predict_scan_top_m(0, space.size(), 25);
    EXPECT_EQ(fp64.error_bound, 0.0);
    EXPECT_EQ(fp64.fp64_reranked, 0u);
    model.set_scan_options(fp32_options());
    const auto fp32 = model.predict_scan_top_m(0, space.size(), 25);
    EXPECT_EQ(fp32.scanned, space.size());
    EXPECT_GT(fp32.error_bound, 0.0);
    EXPECT_GE(fp32.fp64_reranked, 25u);
    expect_same_selection(fp64, fp32);
  }
}

TEST_F(ScanBatchedTest, TopMMatchesFp64WithValidityFilter) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  // Reject every third index: exercises the filtered heap + re-rank path.
  const ScanFilter filter = [](std::uint64_t idx) { return idx % 3 != 0; };

  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, space.size(), 20, filter);
  model.set_scan_options(fp32_options());
  const auto fp32 = model.predict_scan_top_m(0, space.size(), 20, filter);
  expect_same_selection(fp64, fp32);
  for (const auto& c : fp32.top) EXPECT_NE(c.index % 3, 0u);
}

TEST_F(ScanBatchedTest, Fp32PathIsDeterministicAcrossThreadCounts) {
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(fp32_options());

  common::set_global_pool_threads(1);
  const auto one = model.predict_scan_top_m(0, space.size(), 30);
  common::set_global_pool_threads(4);
  const auto four = model.predict_scan_top_m(0, space.size(), 30);
  ASSERT_EQ(one.top.size(), four.top.size());
  for (std::size_t i = 0; i < one.top.size(); ++i) {
    EXPECT_EQ(one.top[i].index, four.top[i].index);
    EXPECT_EQ(one.top[i].predicted_ms, four.top[i].predicted_ms);
  }
  EXPECT_EQ(one.error_bound, four.error_bound);
  EXPECT_EQ(one.fp64_reranked, four.fp64_reranked);
  EXPECT_EQ(one.near_ties, four.near_ties);
}

TEST_F(ScanBatchedTest, DenseRangeDefaultsToFp64) {
  // predict_range_ms returns fp64 values unless a fast engine is named;
  // the scan options only pick the top-M engine.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(fp32_options());
  const auto dense = model.predict_range_ms(60000, 70000);  // chunk seam
  model.set_scan_options(fp64_options());
  EXPECT_EQ(dense, model.predict_range_ms(60000, 70000));

  const auto fp32 =
      model.predict_range_ms(60000, 70000, ScanInference::kBatchedFp32);
  ASSERT_EQ(dense.size(), fp32.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    // Times come out of exp(raw * scale + mean): an fp32 raw error within
    // the bound turns into a small *relative* error on the time.
    EXPECT_LT(std::fabs(fp32[i] - dense[i]) / dense[i], 1e-3) << "i = " << i;
    any_differs |= fp32[i] != dense[i];
  }
  EXPECT_TRUE(any_differs) << "the fp32 engine did not run";
}

TEST_F(ScanBatchedTest, MeasuredFp32ErrorIsWithinTheCertifiedBound) {
  // The exact-top-M argument rests on |raw32 - raw64| <= the engine's
  // certified bound; check it over the whole space, comparing raw outputs
  // via the log of the predicted times.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  const double bound = model.predict_scan_top_m(0, 1, 1).error_bound;
  const double scale = model.target_scale();

  const auto fp64 = model.predict_range_ms(0, space.size());
  const auto fp32 =
      model.predict_range_ms(0, space.size(), ScanInference::kBatchedFp32);
  double worst = 0.0;
  for (std::size_t i = 0; i < fp64.size(); ++i)
    worst = std::max(worst,
                     std::fabs(std::log(fp32[i]) - std::log(fp64[i])) / scale);
  EXPECT_GT(worst, 0.0);
  EXPECT_LE(worst, bound);
  EXPECT_LT(bound, 1e-3);
}

TEST_F(ScanBatchedTest, DefaultEnsembleBoundOnEveryBenchmarkAndDevice) {
  // The paper's default ensemble (k = 11, 1 x 30 sigmoid) fitted on N = 200
  // measured samples of each Table-2 space on each paper device: the
  // certified bound must stay small enough to keep the re-rank band thin,
  // and rows across the space must stay within it.
  const clsim::Platform platform = archsim::default_platform();
  for (const std::string& name : benchkit::benchmark_names()) {
    const auto bench = benchkit::make_benchmark(name);
    const ParamSpace& space = bench->space();
    for (const char* device :
         {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970}) {
      benchkit::BenchmarkEvaluator eval(*bench,
                                        platform.device_by_name(device));
      common::Rng rng(5);
      std::vector<TrainingSample> samples;
      for (std::size_t i = 0; i < 200; ++i) {
        const Configuration c = space.random(rng);
        const Measurement m = eval.measure(c);
        if (m.valid) samples.push_back({c, m.time_ms});
      }
      ASSERT_FALSE(samples.empty()) << name << " @ " << device;
      AnnPerformanceModel model;
      model.fit(space, samples, rng);

      const FeatureCodec codec =
          FeatureCodec::build(space, model.options().encoding);
      const RangeEncoder encoder(codec, space);
      const ml::BatchedEnsemble engine(model.ensemble(),
                                       encoder.calibration());
      EXPECT_LT(engine.error_bound(), 1e-3) << name << " @ " << device;
      EXPECT_EQ(engine.error_bound(),
                model.predict_scan_top_m(0, 1, 1).error_bound);

      // Four windows spread over the space.
      double worst = 0.0;
      const std::uint64_t rows = std::min<std::uint64_t>(4096, space.size());
      for (std::uint64_t w = 0; w < 4; ++w) {
        const std::uint64_t lo = (space.size() - rows) * w / 3;
        ml::Matrix x;
        std::vector<float> xf;
        encoder.fill(lo, lo + rows, x);
        encoder.fill_f32(lo, lo + rows, xf);
        std::vector<double> want;
        ml::BaggingEnsemble::PredictScratch ps;
        model.ensemble().predict_batch_into(x, want, ps);
        std::vector<float> got;
        ml::BatchedEnsemble::Scratch bs;
        engine.predict_batch_into(xf.data(), rows, got, bs);
        for (std::size_t r = 0; r < rows; ++r)
          worst = std::max(worst,
                           std::fabs(static_cast<double>(got[r]) - want[r]));
      }
      EXPECT_LE(worst, engine.error_bound()) << name << " @ " << device;
    }
  }
}

TEST_F(ScanBatchedTest, EngineLessOverloadsRunFp64) {
  // scan_top_m / scan_predict_range without options or engines are the
  // fp64 reference, whatever the ScanOptions default is.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  const RangeEncoder encoder(
      FeatureCodec::build(space, model.options().encoding), space);
  const ScanRowFiller fill = [&encoder](std::uint64_t lo, std::uint64_t hi,
                                        ml::Matrix& x) {
    encoder.fill(lo, hi, x);
  };
  const OutputTransform transform{model.target_scale(), model.target_mean(),
                                  model.options().log_targets};

  const auto top = scan_top_m(model.ensemble(), fill, 0, space.size(), 12,
                              transform);
  EXPECT_EQ(top.error_bound, 0.0);
  EXPECT_EQ(top.fp64_reranked, 0u);
  const auto reference = scan_top_m(model.ensemble(), fill, 0, space.size(),
                                    12, transform, {}, fp64_options(),
                                    nullptr);
  expect_same_selection(reference, top);
  model.set_scan_options(fp64_options());
  expect_same_selection(model.predict_scan_top_m(0, space.size(), 12), top);

  EXPECT_EQ(scan_predict_range(model.ensemble(), fill, 100, 900, transform),
            model.predict_range_ms(100, 900));
}

TEST_F(ScanBatchedTest, BatchedWithoutEngineThrows) {
  const ml::BaggingEnsemble unused;
  const ScanRowFiller fill = [](std::uint64_t, std::uint64_t, ml::Matrix&) {};
  const ScanOptions opts = fp32_options();
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, nullptr),
               std::invalid_argument);
  const BatchedScan no_engine{};
  EXPECT_THROW((void)scan_top_m(unused, fill, 0, 10, 3, OutputTransform{}, {},
                                opts, &no_engine),
               std::invalid_argument);
  EXPECT_THROW((void)scan_predict_range(unused, fill, 0, 10, OutputTransform{},
                                        opts, nullptr),
               std::invalid_argument);
}

TEST_F(ScanBatchedTest, RefitRebuildsTheBatchedEngine) {
  // After a refit the packed weights must follow the new ensemble, not the
  // stale one: predictions on both paths have to agree again.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  model.set_scan_options(fp32_options());
  (void)model.predict_scan_top_m(0, 1000, 5);  // builds the engine

  common::Rng rng(123);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 120);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, 2.0 * synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);

  const auto fp32 = model.predict_scan_top_m(0, 2000, 10);
  model.set_scan_options(fp64_options());
  const auto fp64 = model.predict_scan_top_m(0, 2000, 10);
  expect_same_selection(fp64, fp32);
}

// ---- Default tuners vs explicit fp64 ---------------------------------------

TEST_F(ScanBatchedTest, DefaultAutoTunerMatchesExplicitFp64) {
  AutoTunerOptions fast;
  fast.training_samples = 200;
  fast.second_stage_size = 20;
  AutoTunerOptions fp64 = fast;
  fp64.model.scan = fp64_options();
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    SyntheticEvaluator e1;
    SyntheticEvaluator e2;
    const auto a = AutoTuner(fast).tune(e1, TuneRun::with_seed(3));
    const auto b = AutoTuner(fp64).tune(e2, TuneRun::with_seed(3));
    ASSERT_TRUE(a.success);
    EXPECT_EQ(a.best_config.values, b.best_config.values);
    EXPECT_EQ(a.best_time_ms, b.best_time_ms);
    EXPECT_EQ(a.stage2_measured, b.stage2_measured);
    EXPECT_EQ(a.data_gathering_cost_ms, b.data_gathering_cost_ms);
  }
}

TEST_F(ScanBatchedTest, DefaultIterativeTunerMatchesExplicitFp64) {
  IterativeTunerOptions fast;
  fast.measurement_budget = 300;
  fast.initial_samples = 100;
  fast.batch_size = 50;
  fast.model.ensemble.k = 5;
  IterativeTunerOptions fp64 = fast;
  fp64.model.scan = fp64_options();
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    SyntheticEvaluator e1;
    SyntheticEvaluator e2;
    const auto a = IterativeTuner(fast).tune(e1, TuneRun::with_seed(4));
    const auto b = IterativeTuner(fp64).tune(e2, TuneRun::with_seed(4));
    ASSERT_TRUE(a.success);
    EXPECT_EQ(a.best_config.values, b.best_config.values);
    EXPECT_EQ(a.best_time_ms, b.best_time_ms);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.incumbent_trace, b.incumbent_trace);
  }
}

TEST_F(ScanBatchedTest, DefaultInputAwareScanMatchesExplicitFp64) {
  // Instance features become degenerate calibration ranges; each instance
  // gets its own certified engine.
  const ParamSpace space = testing::small_space();
  InputAwarePerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{16, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 200;
  InputAwarePerformanceModel model(opts);
  common::Rng rng(7);
  const std::vector<double> sizes = {64.0, 256.0, 1024.0};
  std::vector<InputAwareSample> samples;
  for (std::size_t i = 0; i < 400; ++i) {
    const Configuration c = space.random(rng);
    const double size =
        sizes[static_cast<std::size_t>(rng.below(sizes.size()))];
    const double a = std::log2(static_cast<double>(c.values[0]));
    const double b = std::log2(static_cast<double>(c.values[1]));
    const double shape =
        1.0 + (a - 3.0) * (a - 3.0) + 0.5 * (b - 4.0) * (b - 4.0);
    samples.push_back({c, ProblemInstance{{size}}, shape * size / 256.0});
  }
  model.fit(space, {"size"}, samples, rng);

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    for (const double size : {64.0, 1024.0}) {
      const ProblemInstance instance{{size}};
      model.set_scan_options(ScanOptions{});
      const auto fp32 =
          model.predict_scan_top_m(0, space.size(), 10, instance);
      model.set_scan_options(fp64_options());
      const auto fp64 =
          model.predict_scan_top_m(0, space.size(), 10, instance);
      expect_same_selection(fp64, fp32);
      EXPECT_GT(fp32.error_bound, 0.0);
      EXPECT_GT(fp32.fp64_reranked, 0u);
    }
  }
}

}  // namespace
}  // namespace pt::tuner
