// Microbenchmark for the parallel prediction-scan engine: a configs/sec
// trajectory over the Table-2 spaces. For every space and thread count it
// times the dense range scan and the streaming top-M scan of the model's
// tuner::ScanEngine on both inference paths — the fp64 reference
// (reference_range, reference_top_m) and the certified fp32 engine (range,
// top_m; its top-M is the one the tuners run) — checks that the fp32 top-M
// selection is identical to the fp64 one (indices and values), checks
// determinism across thread counts, reports the fp32 re-rank bound (its
// certified B) beside its measured worst raw-output error against fp64 and
// the rows the pruned top-M scan never evaluated, and writes
// BENCH_scan.json. Speedups are always against the same-run fp64 baseline,
// so columns within one report are directly comparable.
//
// The model is trained on synthetic (strictly positive) times so the bench
// exercises exactly the prediction path — no device simulation involved.
//
// Gate (skipped under --smoke), at threads=1, on every space: the certified
// fp32 top-M scan, the entry point every tuner runs, must sustain >= 2x the
// configs/sec of the fp64 top-M. The range scan's ratio is reported, not
// gated: its fp64 side is the member's forward pass, which gets faster with
// the fp64 vector width. The fp32 top-M selection must match fp64 exactly, the measured fp32 error must stay within its certified bound,
// and the top-M must not depend on the thread count (all three also under
// --smoke, which ctest runs). Exit code 1 on any violation.
//
// Flags:
//   --out=FILE      JSON report path (default micro_scan.json)
//   --limit=N       scan at most N configurations per space (0 = full space)
//   --m=M           top-M size (default 300)
//   --training=N    synthetic training samples (default 300)
//   --seed=S        RNG seed (default 1)
//   --trace         record telemetry; metrics go into the report and a
//                   Chrome trace next to it (<out>.trace.json)
//   --smoke         small limits + assertions only; used by ctest

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/registry.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "report.hpp"
#include "tuner/model.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double configs_per_sec(std::uint64_t n, double ms) {
  return ms > 0.0 ? static_cast<double>(n) / (ms / 1000.0) : 0.0;
}

/// Deterministic, strictly positive pseudo-time for a configuration.
double synthetic_time_ms(const pt::tuner::Configuration& config) {
  double t = 5.0;
  for (std::size_t d = 0; d < config.values.size(); ++d) {
    const double v = static_cast<double>(config.values[d]);
    t += 0.37 * static_cast<double>(d + 1) * std::log2(std::abs(v) + 2.0);
    t += 0.05 * std::fmod(std::abs(v), 7.0);
  }
  return t;
}

/// One inference path at one thread count.
struct PathRun {
  std::string inference;  // "fp64" | "fp32"
  double range_ms = 0.0;
  double range_configs_per_sec = 0.0;
  double top_m_ms = 0.0;
  double top_m_configs_per_sec = 0.0;
  double error_bound = 0.0;  // half-width of the re-rank band
  double measured_max_error = 0.0;  // max |raw - fp64 raw| over the range
  std::uint64_t fp64_reranked = 0;
  std::uint64_t near_ties = 0;
  std::uint64_t pruned_rows = 0;  // top-M rows proved out of reach (fp32)
  // Against the same-run fp64 baseline (1.0 for the baseline itself).
  double range_speedup = 1.0;
  double top_m_speedup = 1.0;
  bool top_m_match = true;
  std::vector<std::uint64_t> top_indices;
  std::vector<double> top_values;
  std::vector<double> range_values;
};

struct Run {
  std::size_t threads = 0;
  std::vector<PathRun> paths;  // fp64, then fp32
};

struct SpaceReport {
  std::string name;
  std::uint64_t space_size = 0;
  std::uint64_t scanned = 0;
  double fit_ms = 0.0;
  std::vector<Run> runs;
  bool deterministic = true;
  bool top_m_match = true;
  bool within_bound = true;  // fp32 measured <= certified on every run
  bool gate_pass = true;
};

/// Times one path's two entry points: the fp64 reference when `reference`,
/// else the certified fp32 engine.
PathRun run_path(const pt::tuner::ScanEngine& engine, bool reference,
                 std::uint64_t scanned, std::size_t m) {
  PathRun run;
  run.inference = reference ? "fp64" : "fp32";
  {
    const auto start = Clock::now();
    run.range_values = reference ? engine.reference_range(0, scanned)
                                 : engine.range(0, scanned);
    run.range_ms = ms_since(start);
    run.range_configs_per_sec = configs_per_sec(scanned, run.range_ms);
    if (run.range_values.size() != scanned) std::exit(1);  // defensive
  }
  {
    const auto start = Clock::now();
    const auto scan = reference ? engine.reference_top_m(0, scanned, m)
                                : engine.top_m(0, scanned, m);
    run.top_m_ms = ms_since(start);
    run.top_m_configs_per_sec = configs_per_sec(scanned, run.top_m_ms);
    run.error_bound = scan.error_bound;
    run.fp64_reranked = scan.fp64_reranked;
    run.near_ties = scan.near_ties;
    run.pruned_rows = scan.pruned_rows;
    run.top_indices.reserve(scan.top.size());
    for (const auto& c : scan.top) {
      run.top_indices.push_back(c.index);
      run.top_values.push_back(c.predicted_ms);
    }
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  const bool smoke = args.get("smoke", false);
  const auto out_path = args.get("out", "micro_scan.json");
  const auto limit =
      static_cast<std::uint64_t>(args.get("limit", smoke ? 20000L : 0L));
  const auto m = static_cast<std::size_t>(args.get("m", smoke ? 50L : 300L));
  const auto training =
      static_cast<std::size_t>(args.get("training", smoke ? 120L : 300L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  const bool trace = args.get("trace", false);

  std::optional<common::telemetry::Collector> collector;
  std::optional<common::telemetry::ScopedCollector> scope;
  if (trace) {
    collector.emplace();
    scope.emplace(&*collector);
  }

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = common::default_thread_count();
  if (hw > 4) thread_counts.push_back(hw);
  if (smoke) thread_counts = {1, 4};

  bool all_match = true;
  bool all_gates = true;
  std::vector<SpaceReport> reports;
  for (const auto& name : benchkit::benchmark_names()) {
    const auto bench = benchkit::make_benchmark(name);
    const tuner::ParamSpace& space = bench->space();

    SpaceReport report;
    report.name = name;
    report.space_size = space.size();
    report.scanned =
        limit == 0 ? space.size() : std::min<std::uint64_t>(limit, space.size());

    // Train once (at the default thread count) on synthetic times.
    common::Rng rng(seed);
    std::vector<tuner::TrainingSample> samples;
    samples.reserve(training);
    for (std::size_t i = 0; i < training; ++i) {
      const tuner::Configuration config = space.random(rng);
      samples.push_back({config, synthetic_time_ms(config)});
    }
    tuner::AnnPerformanceModel::Options model_opts;
    model_opts.ensemble.trainer.common.max_epochs = smoke ? 60 : 150;
    tuner::AnnPerformanceModel model(model_opts);
    {
      const auto start = Clock::now();
      model.fit(space, samples, rng);
      report.fit_ms = ms_since(start);
    }
    // Packed once here, outside the timed scans.
    const tuner::ScanEngine engine = model.scan_engine();

    for (const std::size_t threads : thread_counts) {
      common::set_global_pool_threads(threads);
      Run run;
      run.threads = threads;
      for (const bool reference : {true, false})
        run.paths.push_back(run_path(engine, reference, report.scanned, m));

      // Speedups against this run's fp64 baseline, and the accuracy gate:
      // the fp32 path must select exactly the fp64 top-M — same indices,
      // same predicted values.
      const PathRun& fp64 = run.paths.front();
      for (PathRun& path : run.paths) {
        // Raw outputs from the predicted times: log(t) = raw*scale + mean.
        for (std::size_t i = 0; i < path.range_values.size(); ++i)
          path.measured_max_error = std::max(
              path.measured_max_error,
              std::fabs(std::log(path.range_values[i]) -
                        std::log(fp64.range_values[i])) /
                  model.target_scale());
        if (path.inference == "fp32" &&
            path.measured_max_error > path.error_bound)
          report.within_bound = false;
        if (path.range_ms > 0.0)
          path.range_speedup = fp64.range_ms / path.range_ms;
        if (path.top_m_ms > 0.0)
          path.top_m_speedup = fp64.top_m_ms / path.top_m_ms;
        path.top_m_match = path.top_indices == fp64.top_indices &&
                           path.top_values == fp64.top_values;
        if (!path.top_m_match) report.top_m_match = false;
      }
      for (PathRun& path : run.paths) path.range_values = {};

      // Determinism: every path and thread count selects the same top-M.
      if (!report.runs.empty()) {
        for (std::size_t p = 0; p < run.paths.size(); ++p) {
          if (run.paths[p].top_indices !=
              report.runs.front().paths[p].top_indices)
            report.deterministic = false;
        }
      }

      std::cout << name << " threads=" << threads;
      for (const PathRun& path : run.paths)
        std::cout << " " << path.inference << "="
                  << static_cast<std::uint64_t>(path.range_configs_per_sec)
                  << " cfg/s (x" << path.range_speedup
                  << ", match=" << path.top_m_match << ", err="
                  << path.measured_max_error << "<=" << path.error_bound
                  << ", pruned=" << path.pruned_rows << ")";
      std::cout << "\n" << std::flush;
      report.runs.push_back(std::move(run));
    }

    // The threads=1 throughput gate: fp32 top-M >= 2x fp64 top-M.
    if (!smoke && !report.runs.empty()) {
      const PathRun& fp32 = report.runs.front().paths[1];
      if (fp32.top_m_speedup < 2.0) report.gate_pass = false;
    }
    if (!report.top_m_match) {
      std::cout << "FAIL: " << name << ": the fp32 top-M differs from fp64\n";
      all_match = false;
    }
    if (!report.within_bound) {
      std::cout << "FAIL: " << name
                << ": measured fp32 error exceeds the certified bound\n";
      all_match = false;
    }
    if (!report.deterministic) {
      std::cout << "FAIL: " << name
                << ": top-M selection differs across thread counts\n";
      all_match = false;
    }
    if (!report.gate_pass) {
      std::cout << "FAIL: " << name
                << ": below the configs/sec gate (fp32 top-M >= 2x fp64 "
                   "top-M)\n";
      all_gates = false;
    }
    reports.push_back(std::move(report));
  }
  common::set_global_pool_threads(0);  // restore the default

  bench::ReportWriter report;
  report.set("m", m)
      .set("training_samples", training)
      .set("smoke", smoke)
      .set("simd_backend", std::string(common::simd::backend_name()))
      .set("gate_fp32_required_speedup_vs_fp64", 2.0)
      .set("gate_pass", all_gates)
      .set("top_m_match", all_match);
  common::json::Value benchmarks = common::json::Value::array();
  for (const auto& r : reports) {
    common::json::Value entry = common::json::Value::object();
    entry.set("name", r.name);
    entry.set("space_size", r.space_size);
    entry.set("scanned", r.scanned);
    entry.set("fit_ms", r.fit_ms);
    entry.set("deterministic_across_threads", r.deterministic);
    entry.set("top_m_match", r.top_m_match);
    entry.set("fp32_within_certified_bound", r.within_bound);
    entry.set("gate_pass", r.gate_pass);
    common::json::Value runs = common::json::Value::array();
    for (const auto& run : r.runs) {
      common::json::Value run_json = common::json::Value::object();
      run_json.set("threads", run.threads);
      common::json::Value paths = common::json::Value::array();
      for (const PathRun& p : run.paths) {
        common::json::Value path_json = common::json::Value::object();
        path_json.set("inference", p.inference);
        path_json.set("range_ms", p.range_ms);
        path_json.set("range_configs_per_sec", p.range_configs_per_sec);
        path_json.set("range_speedup_vs_fp64", p.range_speedup);
        path_json.set("top_m_ms", p.top_m_ms);
        path_json.set("top_m_configs_per_sec", p.top_m_configs_per_sec);
        path_json.set("top_m_speedup_vs_fp64", p.top_m_speedup);
        path_json.set("error_bound", p.error_bound);
        path_json.set("measured_max_error", p.measured_max_error);
        path_json.set("fp64_reranked", p.fp64_reranked);
        path_json.set("near_ties", p.near_ties);
        path_json.set("pruned_rows", p.pruned_rows);
        path_json.set("top_m_match", p.top_m_match);
        paths.push(std::move(path_json));
      }
      run_json.set("paths", std::move(paths));
      runs.push(std::move(run_json));
    }
    entry.set("runs", std::move(runs));
    benchmarks.push(std::move(entry));
  }
  report.root().set("benchmarks", std::move(benchmarks));
  report.attach_telemetry(collector ? &*collector : nullptr);
  if (collector) bench::write_chrome_trace(*collector, out_path);
  report.write(out_path);
  if (!all_match) return 1;
  if (!smoke && !all_gates) return 1;
  return 0;
}
