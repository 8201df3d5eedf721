// Tests for the pruned fp32 top-M scan (tuner/scan.hpp, "Pruned top-M"):
// given the space's radices, ScanEngine::top_m skips digit boxes whose
// certified lower bound cannot reach the re-rank band, and caps every
// chunk after the first wave at that wave's cutoff. `top`, `scanned`,
// `error_bound`, `fp64_reranked` and `near_ties` must equal the same scan
// given no radices, `rejected` and the static pre-filter's counters may
// only fall, and `top` must equal the fp64 scan's — on the paper's default
// ensembles, on random one-hidden-layer ensembles over synthetic
// mixed-radix spaces, on ranges that start or end off digit boxes, chunk
// seams and wave seams, at 1, 2 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "benchmarks/registry.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "tuner/model.hpp"
#include "tuner/scan.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::random_ensemble;

/// Builds a fresh filter (and resets its tallies) for one scan.
using FilterFactory = std::function<ScanFilter(StaticPruneCounters&)>;

struct ScanCase {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::size_t m = 0;
};

void expect_same_candidates(const std::vector<ScanCandidate>& a,
                            const std::vector<ScanCandidate>& b,
                            const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << what << " rank " << i;
    EXPECT_EQ(a[i].predicted_ms, b[i].predicted_ms) << what << " rank " << i;
  }
}

/// checked, pruned, proved_valid, unknown.
std::array<std::uint64_t, 4> tallies(const StaticPruneCounters& c) {
  return {c.checked.load(), c.pruned.load(), c.proved_valid.load(),
          c.unknown.load()};
}

/// Each of a's tallies is at most b's.
void expect_counters_at_most(const StaticPruneCounters& a,
                             const StaticPruneCounters& b) {
  const auto x = tallies(a);
  const auto y = tallies(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_LE(x[i], y[i]) << i;
}

/// Engines over `ensemble` and `encoder`'s rows sharing one packed fp32
/// engine, walking `radices`.
ScanEngine engine_for(const ml::BaggingEnsemble& ensemble,
                      const RangeEncoder& encoder,
                      const OutputTransform& transform,
                      std::vector<std::uint64_t> radices) {
  return ScanEngine(
      std::make_shared<const ml::BaggingEnsemble>(ensemble),
      std::make_shared<const ml::BatchedEnsemble>(ensemble,
                                                  encoder.calibration()),
      encoder, {}, transform, std::move(radices));
}

/// Scans `c` three ways — fp32 with the encoder's radices, fp32 without,
/// and fp64 — checks that the pruned scan keeps the unpruned one's `top`,
/// `scanned`, `error_bound`, `fp64_reranked` and `near_ties`, with
/// `rejected` and the filter's counters at most the unpruned ones (the cap
/// stops asking the filter about rows above it); that its top-M is the
/// fp64 one; and returns the pruned result.
TopMScanResult expect_pruned_scan_exact(const ml::BaggingEnsemble& ensemble,
                                        const RangeEncoder& encoder,
                                        const OutputTransform& transform,
                                        const ScanCase& c,
                                        const FilterFactory& make_filter) {
  const ScanEngine pruned =
      engine_for(ensemble, encoder, transform, encoder.radices());
  const ScanEngine flat = engine_for(ensemble, encoder, transform, {});
  StaticPruneCounters pruned_counters;
  StaticPruneCounters flat_counters;
  StaticPruneCounters fp64_counters;
  const auto filter_for = [&](StaticPruneCounters& counters) {
    return make_filter ? make_filter(counters) : ScanFilter{};
  };
  const TopMScanResult a =
      pruned.top_m(c.begin, c.end, c.m, filter_for(pruned_counters));
  const TopMScanResult b =
      flat.top_m(c.begin, c.end, c.m, filter_for(flat_counters));
  const TopMScanResult fp64 =
      pruned.reference_top_m(c.begin, c.end, c.m, filter_for(fp64_counters));

  expect_same_candidates(a.top, b.top, "top");
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_LE(a.rejected, b.rejected);
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.fp64_reranked, b.fp64_reranked);
  EXPECT_EQ(a.near_ties, b.near_ties);
  EXPECT_EQ(b.pruned_rows, 0u);
  EXPECT_LE(a.pruned_rows, a.scanned);
  expect_counters_at_most(pruned_counters, flat_counters);
  expect_same_candidates(a.top, fp64.top, "top vs fp64");
  return a;
}

OutputTransform transform_of(const AnnPerformanceModel& model) {
  return {model.target_scale(), model.target_mean(),
          model.options().log_targets};
}

class ScanPrunedTest : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_pool_threads(0); }
};

TEST_F(ScanPrunedTest, DefaultEnsemblesOnEveryBenchmarkAndDevice) {
  // The paper's default ensemble (k = 11, 1 x 30 sigmoid) fitted on N = 200
  // measurements of each Table-2 space on each paper device, scanned with
  // M = 100 over a window that starts and ends off the digit boxes and
  // spans 6 chunks (two waves): without a filter at 4 threads, and with the
  // benchmark's static pre-filter at 1 thread.
  const clsim::Platform platform = archsim::default_platform();
  for (const std::string& name : benchkit::benchmark_names()) {
    const auto bench = benchkit::make_benchmark(name);
    const ParamSpace& space = bench->space();
    for (const char* device_name :
         {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970}) {
      SCOPED_TRACE(name + " @ " + device_name);
      const clsim::Device device = platform.device_by_name(device_name);
      benchkit::BenchmarkEvaluator eval(*bench, device);
      common::Rng rng(5);
      std::vector<TrainingSample> samples;
      for (std::size_t i = 0; i < 200; ++i) {
        const Configuration c = space.random(rng);
        const Measurement m = eval.measure(c);
        if (m.valid) samples.push_back({c, m.time_ms});
      }
      ASSERT_FALSE(samples.empty());
      AnnPerformanceModel model;
      model.fit(space, samples, rng);
      const RangeEncoder encoder(
          FeatureCodec::build(space, model.options().encoding), space);
      const clsim::analyze::StaticChecker checker =
          benchkit::make_static_checker(*bench, device);
      const FilterFactory static_filter =
          [&space, &checker](StaticPruneCounters& counters) {
            return make_static_scan_filter(space, checker, counters);
          };

      const std::uint64_t rows = std::min<std::uint64_t>(space.size(), 98304);
      const ScanCase window{space.size() - rows + 3, space.size() - 5, 100};
      common::set_global_pool_threads(4);
      const TopMScanResult plain = expect_pruned_scan_exact(
          model.ensemble(), encoder, transform_of(model), window, {});
      EXPECT_GT(plain.pruned_rows, 0u);
      common::set_global_pool_threads(1);
      const TopMScanResult filtered = expect_pruned_scan_exact(
          model.ensemble(), encoder, transform_of(model), window,
          static_filter);
      EXPECT_GT(filtered.pruned_rows, 0u);
    }
  }
}

// ---- Random ensembles on synthetic mixed-radix spaces ----------------------

/// Radices drawn from {1, 2, 3, 5, 8}: 8*1*3*5*2*8*3*5*1*2*3 = 172800
/// configurations, 11 chunks of 16384 rows, with radix-1 dimensions in and
/// between.
ParamSpace synthetic_space() {
  ParamSpace space;
  const std::vector<std::size_t> radices = {8, 1, 3, 5, 2, 8, 3, 5, 1, 2, 3};
  for (std::size_t d = 0; d < radices.size(); ++d) {
    std::vector<int> values;
    for (std::size_t v = 0; v < radices[d]; ++v)
      values.push_back(static_cast<int>(v * (d + 2) + d) - 3);
    space.add(std::string(1, static_cast<char>('a' + d)), values);
  }
  return space;
}

TEST_F(ScanPrunedTest, RandomEnsemblesOnSyntheticSpaces) {
  const ParamSpace space = synthetic_space();
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const OutputTransform transform{0.7, 0.3, true};
  const FilterFactory validity = [](StaticPruneCounters&) -> ScanFilter {
    return [](std::uint64_t index) { return (index * 2654435761u) % 7 != 3; };
  };
  const std::uint64_t n = space.size();
  // Every range here has fewer than 2^20 rows, so its chunks hold
  // kScanChunkMinRows = 16384 rows. Whole space; off-box starts and ends;
  // ranges of 16383, 16384 and 16385 rows (one row short of a chunk, one
  // chunk, one row into a second); of 65535 and 65536 rows (up to the
  // first wave's four chunks: one uncapped wave) and 65537 (a second wave
  // of one row); a range across chunk seams off the digit boxes; ranges
  // shorter than m.
  static_assert(scan_chunk_rows(172800) == 16384);
  const std::vector<ScanCase> ranges = {
      {0, n, 16},          {0, 16383, 16},        {13, 13 + 16384, 1},
      {5, 5 + 16385, 16},  {13, 65535, 16},       {0, 65536, 1},
      {7, 7 + 65537, 16},  {16380, 114695, 16},   {100003, n - 17, 1},
      {40000, 40007, 16},  {70001, 70001 + 250, 300},
  };
  std::uint64_t seed = 1;
  for (const std::size_t units : {5u, 12u, 27u}) {
    const ml::BaggingEnsemble ensemble =
        random_ensemble(space, units, 4, 1.5, seed += 17);
    std::uint64_t pruned = 0;
    for (const std::size_t threads : {1u, 4u}) {
      common::set_global_pool_threads(threads);
      for (const ScanCase& c : ranges) {
        for (const bool filtered : {false, true}) {
          SCOPED_TRACE(std::to_string(units) + " units, threads " +
                       std::to_string(threads) + " [" +
                       std::to_string(c.begin) + ", " +
                       std::to_string(c.end) + ") m " + std::to_string(c.m) +
                       (filtered ? " filtered" : ""));
          pruned += expect_pruned_scan_exact(ensemble, encoder, transform, c,
                                             filtered ? validity
                                                      : FilterFactory{})
                        .pruned_rows;
        }
      }
    }
    EXPECT_GT(pruned, 0u) << units << " units";
  }
}

TEST_F(ScanPrunedTest, PrunedRowsEqualAtOneAndFourThreads) {
  const ParamSpace space = synthetic_space();
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const ml::BaggingEnsemble ensemble = random_ensemble(space, 16, 5, 2.0, 404);
  const OutputTransform transform{1.0, 0.0, false};
  const ScanCase c{7, space.size() - 3, 16};
  common::set_global_pool_threads(1);
  const TopMScanResult one =
      expect_pruned_scan_exact(ensemble, encoder, transform, c, {});
  common::set_global_pool_threads(4);
  const TopMScanResult four =
      expect_pruned_scan_exact(ensemble, encoder, transform, c, {});
  EXPECT_GT(one.pruned_rows, 0u);
  EXPECT_EQ(one.pruned_rows, four.pruned_rows);
  expect_same_candidates(one.top, four.top, "top across threads");
}

TEST_F(ScanPrunedTest, FirstWaveCutoffIsDeterministicAndExact) {
  // The synthetic space's 11 chunks: a first wave of 4 chosen by their node
  // bounds, then 7 capped at its cutoff. At m = 1, 16 and 300, with and
  // without a filter, `top` is the fp64 one and every field is the flat
  // scan's (rejected and the filter's counters at most), and pruned_rows,
  // rejected and the counters are the same at 1, 2 and 4 threads.
  const ParamSpace space = synthetic_space();
  const std::uint64_t n = space.size();
  ASSERT_EQ((n + scan_chunk_rows(n) - 1) / scan_chunk_rows(n), 11u);
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const ml::BaggingEnsemble ensemble = random_ensemble(space, 16, 5, 2.0, 808);
  const OutputTransform transform{0.5, 1.0, false};
  const ScanEngine pruned =
      engine_for(ensemble, encoder, transform, encoder.radices());
  // Tallies every query like a static pre-filter; rejects a seventh of the
  // space.
  const FilterFactory counted = [](StaticPruneCounters& counters) {
    return ScanFilter([&counters](std::uint64_t index) {
      counters.checked.fetch_add(1);
      const bool pass = (index * 2654435761u) % 7 != 3;
      (pass ? counters.proved_valid : counters.pruned).fetch_add(1);
      return pass;
    });
  };
  for (const std::size_t m : {1u, 16u, 300u}) {
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE("m " + std::to_string(m) + (filtered ? " filtered" : ""));
      const FilterFactory make_filter = filtered ? counted : FilterFactory{};
      common::set_global_pool_threads(4);
      const TopMScanResult exact = expect_pruned_scan_exact(
          ensemble, encoder, transform, {0, n, m}, make_filter);
      EXPECT_GT(exact.pruned_rows, 0u);
      std::array<std::uint64_t, 4> first{};
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        common::set_global_pool_threads(threads);
        StaticPruneCounters counters;
        const TopMScanResult r = pruned.top_m(
            0, n, m, make_filter ? make_filter(counters) : ScanFilter{});
        expect_same_candidates(r.top, exact.top, "top across threads");
        EXPECT_EQ(r.pruned_rows, exact.pruned_rows);
        EXPECT_EQ(r.rejected, exact.rejected);
        EXPECT_EQ(r.fp64_reranked, exact.fp64_reranked);
        EXPECT_EQ(r.near_ties, exact.near_ties);
        if (threads == 1) first = tallies(counters);
        EXPECT_EQ(tallies(counters), first);
      }
    }
  }

  // A filter that passes 173 rows, fewer than m: no chunk heap fills, the
  // first wave's cap is +inf, and the result is the flat scan's, field for
  // field, nothing pruned.
  const ScanEngine flat = engine_for(ensemble, encoder, transform, {});
  StaticPruneCounters pruned_counters;
  StaticPruneCounters flat_counters;
  const auto sparse = [](StaticPruneCounters& counters) {
    return ScanFilter([&counters](std::uint64_t index) {
      counters.checked.fetch_add(1);
      const bool pass = index % 1000 == 7;
      (pass ? counters.proved_valid : counters.pruned).fetch_add(1);
      return pass;
    });
  };
  const TopMScanResult a = pruned.top_m(0, n, 300, sparse(pruned_counters));
  const TopMScanResult b = flat.top_m(0, n, 300, sparse(flat_counters));
  ASSERT_EQ(a.top.size(), 173u);
  expect_same_candidates(a.top, b.top, "sparse top");
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.fp64_reranked, b.fp64_reranked);
  EXPECT_EQ(a.near_ties, b.near_ties);
  EXPECT_EQ(a.pruned_rows, 0u);
  EXPECT_EQ(b.pruned_rows, 0u);
  EXPECT_EQ(tallies(pruned_counters), tallies(flat_counters));
}

TEST_F(ScanPrunedTest, CapKeepsABandThatSpansEveryChunk) {
  // Raw-encoded values far from the origin against their spread: the folded
  // scaler cancels large terms, so the certified B is wide and the re-rank
  // band around the cutoff holds rows of every chunk. The cap of the second
  // wave, the first wave's m-th best + 2B, must keep all of them, so
  // near_ties and fp64_reranked stay the flat scan's.
  ParamSpace space;
  const std::vector<std::size_t> radices = {8, 1, 3, 5, 2, 8, 3, 5, 1, 2, 3};
  for (std::size_t d = 0; d < radices.size(); ++d) {
    std::vector<int> values;
    for (std::size_t v = 0; v < radices[d]; ++v)
      values.push_back((1 << 20) + static_cast<int>(v));
    space.add(std::string(1, static_cast<char>('a' + d)), values);
  }
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const ml::BaggingEnsemble ensemble = random_ensemble(space, 16, 3, 1.0, 11);
  const FilterFactory validity = [](StaticPruneCounters&) -> ScanFilter {
    return [](std::uint64_t index) { return index % 3 != 0; };
  };
  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (filtered ? " filtered" : ""));
      const TopMScanResult r = expect_pruned_scan_exact(
          ensemble, encoder, OutputTransform{}, {0, space.size(), 15},
          filtered ? validity : FilterFactory{});
      EXPECT_GT(r.near_ties, 0u);
    }
  }
}

TEST_F(ScanPrunedTest, RadicesThatDoNotDescribeTheRangeThrow) {
  const ParamSpace space = synthetic_space();
  const RangeEncoder encoder(FeatureCodec::build(space, FeatureEncoding::kRaw),
                             space);
  const ml::BaggingEnsemble ensemble = random_ensemble(space, 8, 2, 1.0, 5);
  const auto scan = [&](std::vector<std::uint64_t> radices) {
    return engine_for(ensemble, encoder, OutputTransform{}, std::move(radices))
        .top_m(0, space.size(), 4);
  };
  std::vector<std::uint64_t> radices = encoder.radices();
  radices.pop_back();  // covers a third of the space
  EXPECT_THROW((void)scan(radices), std::invalid_argument);
  radices = encoder.radices();
  radices.push_back(2);  // more digits than features
  EXPECT_THROW((void)scan(radices), std::invalid_argument);
  radices = encoder.radices();
  radices[3] = 0;
  EXPECT_THROW((void)scan(radices), std::invalid_argument);
}

TEST_F(ScanPrunedTest, ModelScanPrunesWithTheEncoderRadices) {
  // AnnPerformanceModel builds its engine with its RangeEncoder's radices:
  // its top-M prunes, counts the skipped rows in telemetry, and stays the
  // fp64 one.
  const ParamSpace space = synthetic_space();
  common::Rng rng(3);
  std::vector<TrainingSample> samples;
  for (std::size_t i = 0; i < 150; ++i) {
    const Configuration c = space.random(rng);
    double t = 2.0;
    for (std::size_t d = 0; d < c.values.size(); ++d)
      t += 0.1 * static_cast<double>(d + 1) *
           std::fabs(static_cast<double>(c.values[d]) - 4.0);
    samples.push_back({c, t});
  }
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.trainer.common.max_epochs = 100;
  AnnPerformanceModel model(opts);
  model.fit(space, samples, rng);
  common::telemetry::Collector collector;
  TopMScanResult fp32;
  {
    const common::telemetry::ScopedCollector scope(&collector);
    fp32 = model.predict_scan_top_m(0, space.size(), 20);
  }
  EXPECT_EQ(collector.counter("tuner.scan.pruned_rows"),
            static_cast<double>(fp32.pruned_rows));
  const TopMScanResult reference =
      model.scan_engine().reference_top_m(0, space.size(), 20);
  EXPECT_GT(fp32.pruned_rows, 0u);
  EXPECT_EQ(reference.pruned_rows, 0u);
  expect_same_candidates(fp32.top, reference.top, "model top");
}

}  // namespace
}  // namespace pt::tuner
