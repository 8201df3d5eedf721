// Tests for the scan engine's certified fp32 path, the tuners' top-M engine
// (tuner/scan.hpp + tuner/model.hpp): its top-M selection must be identical
// to the fp64 reference's — indices and predicted values — at every thread
// count, with and without a validity filter, also when the re-rank band
// holds crowds of near-ties; the measured fp32 error must stay within the
// engine's certified bound (also for the paper's default ensemble on every
// benchmark x device); the AutoTuner's stage-2 candidates and the scans of
// a model with a problem parameter must be the fp64 reference's bit for
// bit; and copied and moved models must scan the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "benchmarks/registry.hpp"
#include "common/thread_pool.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/model.hpp"
#include "tuner/scan.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

/// 8*8*4*6*6*8 = 73728 configurations: four and a half 16384-row chunks,
/// so the merge path, both waves of the pruned top-M and a partial tail
/// chunk are all exercised.
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

void expect_same_candidates(const std::vector<ScanCandidate>& a,
                            const std::vector<ScanCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "rank " << i;
    // The fp32 path re-ranks through the fp64 reference, so predicted values
    // of the selection are bit-identical, not merely close.
    EXPECT_EQ(a[i].predicted_ms, b[i].predicted_ms) << "rank " << i;
  }
}

void expect_same_selection(const TopMScanResult& fp64,
                           const TopMScanResult& fp32) {
  expect_same_candidates(fp64.top, fp32.top);
}

void expect_same_result(const TopMScanResult& a, const TopMScanResult& b) {
  expect_same_selection(a, b);
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.fp64_reranked, b.fp64_reranked);
  EXPECT_EQ(a.near_ties, b.near_ties);
  EXPECT_EQ(a.pruned_rows, b.pruned_rows);
}

/// A model over testing::small_space() with one "size" problem parameter.
AnnPerformanceModel trained_input_aware_model() {
  const ParamSpace space = testing::small_space();
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{16, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 200;
  AnnPerformanceModel model(opts);
  common::Rng rng(7);
  const std::vector<double> sizes = {64.0, 256.0, 1024.0};
  std::vector<TrainingSample> samples;
  for (std::size_t i = 0; i < 400; ++i) {
    const Configuration c = space.random(rng);
    const double size =
        sizes[static_cast<std::size_t>(rng.below(sizes.size()))];
    const double a = std::log2(static_cast<double>(c.values[0]));
    const double b = std::log2(static_cast<double>(c.values[1]));
    const double shape =
        1.0 + (a - 3.0) * (a - 3.0) + 0.5 * (b - 4.0) * (b - 4.0);
    samples.push_back({c, shape * size / 256.0, ProblemInstance{{size}}});
  }
  model.fit(space, samples, rng);
  return model;
}

class ScanBatchedTest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_F(ScanBatchedTest, TopMMatchesFp64AtOneAndFourThreads) {
  const ParamSpace space = big_space();
  const AnnPerformanceModel model = trained_model(space);
  const ScanEngine engine = model.scan_engine();

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    const auto fp64 = engine.reference_top_m(0, space.size(), 25);
    EXPECT_EQ(fp64.error_bound, 0.0);
    EXPECT_EQ(fp64.fp64_reranked, 0u);
    const auto fp32 = model.predict_scan_top_m(0, space.size(), 25);
    EXPECT_EQ(fp32.scanned, space.size());
    EXPECT_GT(fp32.error_bound, 0.0);
    EXPECT_GE(fp32.fp64_reranked, 25u);
    expect_same_selection(fp64, fp32);
  }
}

TEST_F(ScanBatchedTest, TopMMatchesFp64WithValidityFilter) {
  const ParamSpace space = big_space();
  const AnnPerformanceModel model = trained_model(space);
  // Reject every third index: exercises the filtered heap + re-rank path.
  const ScanFilter filter = [](std::uint64_t idx) { return idx % 3 != 0; };

  const auto fp64 =
      model.scan_engine().reference_top_m(0, space.size(), 20, filter);
  const auto fp32 = model.predict_scan_top_m(0, space.size(), 20, filter);
  expect_same_selection(fp64, fp32);
  for (const auto& c : fp32.top) EXPECT_NE(c.index % 3, 0u);
}

TEST_F(ScanBatchedTest, Fp32PathIsDeterministicAcrossThreadCounts) {
  const ParamSpace space = big_space();
  const AnnPerformanceModel model = trained_model(space);

  common::set_global_pool_threads(1);
  const auto one = model.predict_scan_top_m(0, space.size(), 30);
  common::set_global_pool_threads(4);
  const auto four = model.predict_scan_top_m(0, space.size(), 30);
  expect_same_result(one, four);
}

TEST_F(ScanBatchedTest, PredictRangeIsTheFp64Reference) {
  // Every engine of the model gives the same fp64 reference values; the
  // engine's dense fp32 range stays within its bound of them.
  const ParamSpace space = big_space();
  const AnnPerformanceModel model = trained_model(space);
  const ScanEngine engine = model.scan_engine();
  const auto dense =
      model.scan_engine().reference_range(60000, 70000);  // chunk seam
  EXPECT_EQ(dense, engine.reference_range(60000, 70000));

  const auto fp32 = engine.range(60000, 70000);
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
  const AnnPerformanceModel model = trained_model(space);
  const ScanEngine engine = model.scan_engine();
  const double bound = engine.error_bound();
  EXPECT_EQ(bound, model.predict_scan_top_m(0, 1, 1).error_bound);
  const double scale = model.target_scale();

  const auto fp64 = engine.reference_range(0, space.size());
  const auto fp32 = engine.range(0, space.size());
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

TEST_F(ScanBatchedTest, AdversarialNearTieBandStillMatchesFp64Exactly) {
  // Raw-encoded values far from the origin relative to their spread: the
  // folded scaler cancels large terms, so the certified bound B is wide by
  // construction (about 0.4 here) and the re-rank band around the cutoff
  // holds every row of the space. fp32 rounding reorders rows across the
  // m-th place, so the selection is exactly the fp64 one only if the band
  // is re-ranked, not truncated to the fp32 top m.
  ParamSpace space;  // 10*8*7*6*5*4 = 67200 configurations: two chunks
  const std::vector<int> radices = {10, 8, 7, 6, 5, 4};
  for (std::size_t d = 0; d < radices.size(); ++d) {
    std::vector<int> values;
    for (int v = 0; v < radices[d]; ++v) values.push_back((1 << 20) + v);
    space.add(std::string(1, static_cast<char>('a' + d)), values);
  }
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const ml::BaggingEnsemble ensemble =
      testing::random_ensemble(space, 16, 3, 1.0, 11);
  const ScanEngine engine(
      std::make_shared<const ml::BaggingEnsemble>(ensemble),
      std::make_shared<const ml::BatchedEnsemble>(ensemble,
                                                  encoder.calibration()),
      encoder, {}, OutputTransform{}, encoder.radices());
  const ScanFilter filter = [](std::uint64_t idx) { return idx % 3 != 0; };
  constexpr std::size_t m = 15;

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (filtered ? " filtered" : ""));
      const ScanFilter f = filtered ? filter : ScanFilter{};
      const auto fp64 = engine.reference_top_m(0, space.size(), m, f);
      const auto fp32 = engine.top_m(0, space.size(), m, f);
      expect_same_selection(fp64, fp32);
      EXPECT_GT(fp32.near_ties, 0u);
      // One selection set, filtered or not: fp64 re-ranks exactly its
      // band, the m best plus the near ties.
      EXPECT_EQ(fp32.fp64_reranked, m + fp32.near_ties);
    }
  }
}

TEST_F(ScanBatchedTest, EngineRejectsAnUncertifiedBox) {
  // The top-M is exact only if B covers every scanned row: an fp32 engine
  // certified over a smaller box than the rows', or a missing ensemble, is
  // refused at construction.
  const ParamSpace space = big_space();
  const AnnPerformanceModel model = trained_model(space);
  const RangeEncoder encoder(
      FeatureCodec::build(space, model.options().encoding), space);
  ml::CertificationBox narrow = encoder.calibration();
  narrow.hi[0] = narrow.lo[0];
  const auto fp64 =
      std::make_shared<const ml::BaggingEnsemble>(model.ensemble());
  const auto packed =
      std::make_shared<const ml::BatchedEnsemble>(model.ensemble(), narrow);
  EXPECT_THROW(ScanEngine(fp64, packed, encoder, {}, OutputTransform{}, {}),
               std::invalid_argument);
  const auto certified = std::make_shared<const ml::BatchedEnsemble>(
      model.ensemble(), encoder.calibration());
  EXPECT_THROW(ScanEngine(nullptr, certified, encoder, {}, OutputTransform{},
                          {}),
               std::invalid_argument);
  EXPECT_THROW(ScanEngine(std::make_shared<const ml::BaggingEnsemble>(),
                          certified, encoder, {}, OutputTransform{}, {}),
               std::invalid_argument);
}

TEST_F(ScanBatchedTest, RefitRebuildsTheBatchedEngine) {
  // After a refit the packed weights must follow the new ensemble, not the
  // stale one: the new engine's top-M equals its fp64 reference again, and
  // an engine taken before the refit keeps scanning the old ensemble.
  const ParamSpace space = big_space();
  AnnPerformanceModel model = trained_model(space);
  const ScanEngine before = model.scan_engine();

  common::Rng rng(123);
  std::vector<TrainingSample> samples;
  const auto indices = rng.sample_without_replacement(
      static_cast<std::size_t>(space.size()), 120);
  for (const auto idx : indices) {
    const Configuration c = space.decode(idx);
    samples.push_back({c, 2.0 * synthetic_time_ms(c)});
  }
  model.fit(space, samples, rng);

  const ScanEngine after = model.scan_engine();
  EXPECT_NE(&before.batched(), &after.batched());
  expect_same_selection(after.reference_top_m(0, 2000, 10),
                        model.predict_scan_top_m(0, 2000, 10));
  expect_same_selection(before.reference_top_m(0, 2000, 10),
                        before.top_m(0, 2000, 10));
}

TEST_F(ScanBatchedTest, CopiedAndMovedModelsScanTheSame) {
  // AutoTuner moves its fitted model into the result and the service moves
  // it again into the store: a copy re-packs, a move carries the packed
  // engine, and no engine may point into the model left behind (it is
  // destroyed here before the moved-to copy scans).
  const ParamSpace space = big_space();
  std::optional<AnnPerformanceModel> original(trained_model(space));
  const TopMScanResult first =
      original->predict_scan_top_m(0, space.size(), 25);
  const ml::BatchedEnsemble* packed = &original->scan_engine().batched();

  const AnnPerformanceModel copy = *original;
  std::optional<AnnPerformanceModel> moved(std::move(*original));
  original.reset();
  const auto stored =
      std::make_shared<const AnnPerformanceModel>(std::move(*moved));
  moved.reset();
  EXPECT_NE(&copy.scan_engine().batched(), packed);
  EXPECT_EQ(&stored->scan_engine().batched(), packed);
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    expect_same_result(first, copy.predict_scan_top_m(0, space.size(), 25));
    expect_same_result(first,
                       stored->predict_scan_top_m(0, space.size(), 25));
  }

  // Problem parameters: one fp32 engine per instance; copies and moves scan
  // each instance as the original did.
  std::optional<AnnPerformanceModel> aware(trained_input_aware_model());
  const std::uint64_t n = testing::small_space().size();
  const ProblemInstance small{{64.0}};
  const ProblemInstance large{{1024.0}};
  const TopMScanResult small_first = aware->scan_engine(small).top_m(0, n, 10);
  const TopMScanResult large_first = aware->scan_engine(large).top_m(0, n, 10);
  const AnnPerformanceModel aware_copy = *aware;
  const AnnPerformanceModel aware_moved = std::move(*aware);
  aware.reset();
  for (const AnnPerformanceModel* m : {&aware_copy, &aware_moved}) {
    expect_same_result(small_first, m->scan_engine(small).top_m(0, n, 10));
    expect_same_result(large_first, m->scan_engine(large).top_m(0, n, 10));
  }
}

// ---- Tuners vs the fp64 reference ------------------------------------------

/// Records the stage-2 candidates a tuner measures, in order.
class CandidateRecorder final : public TunerObserver {
 public:
  void on_candidate(std::uint64_t index, double predicted_ms) override {
    candidates.push_back({index, predicted_ms});
  }
  std::vector<ScanCandidate> candidates;
};

TEST_F(ScanBatchedTest, DefaultAutoTunerMatchesExplicitFp64) {
  // The AutoTuner's stage-2 candidates are the fp64 reference's top-M of
  // its own fitted model, indices and predicted times alike.
  AutoTunerOptions options;
  options.training_samples = 200;
  options.second_stage_size = 20;
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    SyntheticEvaluator eval;
    CandidateRecorder recorder;
    TuneRun run = TuneRun::with_seed(3);
    run.observer = &recorder;
    const AutoTuneResult result = AutoTuner(options).tune(eval, run);
    ASSERT_TRUE(result.success);
    ASSERT_TRUE(result.model.has_value());
    const TopMScanResult reference =
        result.model->scan_engine().reference_top_m(
            0, eval.space().size(), options.second_stage_size);
    expect_same_candidates(reference.top, recorder.candidates);
  }
}

TEST_F(ScanBatchedTest, DefaultInputAwareScanMatchesExplicitFp64) {
  // Instance features become degenerate certification ranges; each
  // instance gets its own certified engine.
  const AnnPerformanceModel model = trained_input_aware_model();
  const std::uint64_t n = testing::small_space().size();

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    for (const double size : {64.0, 1024.0}) {
      const ProblemInstance instance{{size}};
      const auto fp32 = model.scan_engine(instance).top_m(0, n, 10);
      const auto fp64 =
          model.scan_engine(instance).reference_top_m(0, n, 10);
      expect_same_selection(fp64, fp32);
      EXPECT_GT(fp32.error_bound, 0.0);
      EXPECT_GT(fp32.fp64_reranked, 0u);
    }
  }
}

}  // namespace
}  // namespace pt::tuner
