// End-to-end benchmark: cold tunes and a mixed tuning-service load
// (bench/e2e/README.md has the rationale and the metric table).
//
// One invocation measures one workload for --seconds and prints every metric
// by name with its unit. The last stdout line is a one-line JSON summary:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// With --trace=0 the metrics are the end-to-end ones. With --trace=1 every
// cold tune is run twice: once directly and once replayed through the public
// calls of each layer, with one in-memory span per call. Those spans give
// the per-layer metrics and are written as a Chrome trace at exit.
//
// Workloads (all inputs are drawn from --seed):
//   tune_fit_bound   closed loop, one client: cold AutoTuner::tune over
//                    {convolution, raycasting} x {i7 3770, K40, HD 7970} at
//                    paper geometry with the default options (N=2000, M=100)
//   tune_scan_bound  the same loop over stereo x 3 devices at N=200, M=100
//   serve_mixed      open loop, Poisson arrivals at 200 req/s, round-robin
//                    over 4 tenants into a TuneService (2 workers): 2% cold
//                    tunes, 78% repeat tunes, 20% predicts over 6 small keys.
//                    The rate, mix and worker count are a synthetic load, not
//                    a measured one.
//
// Flags:
//   --workload=W      one of the three above (required)
//   --seed=S          input seed (default 1)
//   --seconds=T       measured time (default 30). The tune workloads turn it
//                     into a whole number of passes over their cells (at
//                     least one), so every host tunes the same seeds.
//   --trace=0|1       per-layer run (default 0)
//   --smoke           one N=200 cell per tune workload, 3 s of serve_mixed
//   --out=FILE        every metric and decision as JSON
//   --trace-out=FILE  Chrome trace of the replay spans (with --trace=1)
//
// Exit codes: 0 ok, 1 bad arguments, 2 setup error, 3 a correctness gate
// failed (the summary line then carries "correct": false).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/model.hpp"
#include "tuner/options.hpp"
#include "tuner/sampler.hpp"

namespace {

using namespace pt;
using Clock = std::chrono::steady_clock;
namespace json = common::json;

// serve_mixed shape: a synthetic load. Every key is warmed at the first seed
// from kWarmSeed up whose tune gives a prediction, the same seeds in every
// run, so every run serves the same store contents. The service never
// stores a no-prediction answer, so a pair warmed at such a seed would re-run
// its whole tune on every repeat.
constexpr std::uint64_t kWarmSeed = 1;
constexpr std::uint64_t kWarmAttempts = 8;
constexpr double kServeRate = 200.0;  // requests per second
constexpr std::size_t kServeTenants = 4;
constexpr std::size_t kServeWorkers = 2;
// Request mix, stratified per block so every run has the same proportions.
constexpr std::size_t kMixBlock = 50;
constexpr std::size_t kMixCold = 1;      // 2%
constexpr std::size_t kMixPredict = 10;  // 20%; the rest (78%) are repeats
// Cold tunes checked against (and, traced, replayed beside) a direct tune.
constexpr std::size_t kProbeColdTunes = 12;
// Set-up is repeated and its median reported, the repeats spread over the
// run (before every tune; before and after the serve window), so a few slow
// seconds on a shared host do not move setup_s.
constexpr std::size_t kServeSetupRepeats = 4;  // before, and again after

enum SeedStream : std::uint64_t {
  kCellStream = 1,
  kScheduleStream,
  kColdStream,
};

/// Independent seed number i of a stream, derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t i) {
  std::uint64_t state =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + i;
  return common::splitmix64(state);
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Mean over groups of each non-empty group's mean: weighs every cell (or
/// key) alike when their sample counts differ.
double mean_of_means(const std::vector<std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& g : groups)
    if (!g.empty()) means.push_back(common::mean(g));
  return common::mean(means);
}

double geomean_of_geomeans(const std::vector<std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& g : groups)
    if (!g.empty()) means.push_back(common::geometric_mean(g));
  return means.empty() ? 0.0 : common::geometric_mean(means);
}

double quantile_or_zero(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : common::quantile(xs, q);
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One tuning decision, the unit of the correctness gates.
struct Decision {
  std::string id;
  bool success = false;
  tuner::Configuration best;
  double best_time_ms = 0.0;
  /// Simulated data-gathering cost; NaN where the answer does not carry it
  /// (a served tune that gave no prediction).
  double sim_cost_ms = std::numeric_limits<double>::quiet_NaN();
};

bool same_decision(const Decision& a, const Decision& b) {
  const bool same_cost =
      (std::isnan(a.sim_cost_ms) && std::isnan(b.sim_cost_ms)) ||
      a.sim_cost_ms == b.sim_cost_ms;
  return a.success == b.success && same_cost &&
         (!a.success ||
          (a.best == b.best && a.best_time_ms == b.best_time_ms));
}

Decision decision_of(std::string id, const tuner::AutoTuneResult& r) {
  Decision d;
  d.id = std::move(id);
  d.success = r.success;
  d.best = r.best_config;
  d.best_time_ms = r.best_time_ms;
  d.sim_cost_ms = r.data_gathering_cost_ms;
  return d;
}

std::string cell_id(const std::string& workload, const serve::TuneKey& key,
                    std::uint64_t seed) {
  return workload + "/" + key.kernel + "@" + key.device + "/" + key.input +
         "/seed=" + std::to_string(seed);
}

// ---------------------------------------------------------------- tracing

/// Bench-side spans: one per call into a layer, tagged with the request
/// (cell or served request) it belongs to and its parent span. Kept in
/// memory; written as a Chrome trace at exit. Single-threaded (the replay
/// runs on the main thread).
class Tracer {
 public:
  std::size_t open(std::string name, std::uint64_t request) {
    Span span;
    span.name = std::move(name);
    span.request = request;
    span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Close span `id` (the innermost open one); returns its duration in ms.
  double close(std::size_t id) {
    spans_[id].end = Clock::now();
    open_.pop_back();
    return ms_between(spans_[id].start, spans_[id].end);
  }

  [[nodiscard]] json::Value chrome_trace() const {
    json::Value events = json::Value::array();
    for (const Span& span : spans_) {
      json::Value args = json::Value::object();
      args.set("request", static_cast<double>(span.request));
      args.set("parent", static_cast<double>(span.parent));
      json::Value e = json::Value::object();
      e.set("name", span.name);
      e.set("cat", "e2e");
      e.set("ph", "X");
      e.set("ts", 1000.0 * ms_between(epoch_, span.start));
      e.set("dur", 1000.0 * ms_between(span.start, span.end));
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    json::Value root = json::Value::object();
    root.set("traceEvents", std::move(events));
    return root;
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    long parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Per-layer totals over the replayed cold tunes.
struct LayerTally {
  std::size_t tunes = 0;
  double wall_ms = 0.0;    // replay root spans
  double direct_ms = 0.0;  // the same tunes, untraced
  double sampler_ms = 0.0;
  double measure_ms = 0.0;
  double fit_ms = 0.0;
  double scan_ms = 0.0;
  double epochs = 0.0;
  double measure_calls = 0.0;
  double measure_invalid = 0.0;
  double scan_rows = 0.0;
  double scan_reranked = 0.0;
  double sim_build_ms = 0.0;
  double sim_exec_ms = 0.0;
  double sim_failed_ms = 0.0;
};

/// AutoTuner::tune(evaluator, TuneRun::with_seed(seed)) re-done through the
/// public call of each layer, in the tuner's order, with one span per call:
/// Rng(seed) -> RandomSampler::sample -> Evaluator::measure x N ->
/// AnnPerformanceModel::fit -> predict_scan_top_m(0, size, M) -> measure x M.
Decision replay_tune(tuner::Evaluator& evaluator,
                     const tuner::AutoTunerOptions& options, std::uint64_t seed,
                     std::string id, std::uint64_t request, Tracer& tracer,
                     LayerTally& tally) {
  const std::size_t root = tracer.open("replay", request);
  const auto timed = [&](const char* name, const auto& call) {
    const std::size_t span = tracer.open(name, request);
    call();
    return tracer.close(span);
  };
  const tuner::ParamSpace& space = evaluator.space();
  Decision d;
  d.id = std::move(id);
  d.sim_cost_ms = 0.0;
  const auto measure = [&](const tuner::Configuration& config) {
    const tuner::Measurement m = evaluator.measure(config);
    d.sim_cost_ms += m.cost_ms;
    tally.measure_calls += 1.0;
    if (!m.valid) tally.measure_invalid += 1.0;
    return m;
  };

  common::Rng rng(seed);
  std::vector<tuner::Configuration> samples;
  tally.sampler_ms += timed("tuner/sampler", [&] {
    samples = tuner::RandomSampler().sample(space, options.training_samples,
                                            rng);
  });
  std::vector<tuner::TrainingSample> training;
  tally.measure_ms += timed("benchmarks/measure.stage1", [&] {
    for (const auto& config : samples) {
      const tuner::Measurement m = measure(config);
      if (m.valid) training.push_back({config, m.time_ms});
    }
  });
  if (!training.empty()) {
    tuner::AnnPerformanceModel model(options.model);
    tally.fit_ms += timed("ml/fit", [&] { model.fit(space, training, rng); });
    for (const ml::TrainResult& member : model.ensemble().train_results())
      tally.epochs += static_cast<double>(member.epochs);
    tuner::TopMScanResult scan;
    tally.scan_ms += timed("tuner/scan", [&] {
      scan = model.predict_scan_top_m(0, space.size(),
                                      options.second_stage_size);
    });
    tally.scan_rows += static_cast<double>(scan.scanned);
    tally.scan_reranked += static_cast<double>(scan.fp64_reranked);
    tally.measure_ms += timed("benchmarks/measure.stage2", [&] {
      for (const tuner::ScanCandidate& c : scan.top) {
        const tuner::Configuration config = space.decode(c.index);
        const tuner::Measurement m = measure(config);
        if (m.valid && (!d.success || m.time_ms < d.best_time_ms)) {
          d.success = true;
          d.best_time_ms = m.time_ms;
          d.best = config;
        }
      }
    });
  }
  tally.wall_ms += tracer.close(root);

  // Simulated cost split: builds and kernel runs from the evaluator's queue;
  // the rest is the penalty charged for rejected configurations.
  const auto* leaf =
      tuner::find_layer<benchkit::BenchmarkEvaluator>(&evaluator);
  const double build_ms =
      leaf != nullptr ? leaf->queue().total_build_ms() : 0.0;
  const double exec_ms =
      leaf != nullptr ? leaf->queue().total_kernel_ms() : 0.0;
  tally.sim_build_ms += build_ms;
  tally.sim_exec_ms += exec_ms;
  tally.sim_failed_ms += d.sim_cost_ms - build_ms - exec_ms;
  ++tally.tunes;
  return d;
}

/// Outcome of one workload run.
struct Outcome {
  std::vector<Metric> metrics;  // the summary set: end-to-end or per-layer
  std::vector<Metric> notes;    // printed and saved, not in the summary
  std::vector<Decision> decisions;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // failed correctness gates

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

double count(std::size_t n) { return static_cast<double>(n); }

/// The per-layer metrics every workload reports (per replayed cold tune),
/// with the gate that the layer spans account for the replay's wall time.
void add_layer_metrics(const LayerTally& t, Outcome& out) {
  const double n = std::max(1.0, count(t.tunes));
  const double unattributed =
      t.wall_ms - (t.sampler_ms + t.measure_ms + t.fit_ms + t.scan_ms);
  out.metric("fit.ms", t.fit_ms / n, "ms");
  out.metric("fit.epochs", t.epochs / n, "count");
  out.metric("fit.ms_per_epoch", share(t.fit_ms, t.epochs), "ms");
  out.metric("scan.ms", t.scan_ms / n, "ms");
  out.metric("scan.rows", t.scan_rows / n, "count");
  out.metric("scan.rows_per_s", share(t.scan_rows, t.scan_ms / 1000.0), "1/s");
  out.metric("scan.reranked", t.scan_reranked / n, "count");
  out.metric("scan.share", share(t.scan_ms, t.wall_ms), "ratio");
  out.metric("sampler.ms", t.sampler_ms / n, "ms");
  out.metric("measure.calls", t.measure_calls / n, "count");
  out.metric("measure.ms", t.measure_ms / n, "ms");
  out.metric("measure.invalid_share",
             share(t.measure_invalid, t.measure_calls), "ratio");
  out.metric("sim.build_s", t.sim_build_ms / n / 1000.0, "s");
  out.metric("sim.exec_s", t.sim_exec_ms / n / 1000.0, "s");
  out.metric("sim.failed_s", t.sim_failed_ms / n / 1000.0, "s");
  out.metric("unattributed_ms", unattributed / n, "ms");
  out.metric("trace_overhead_pct",
             100.0 * share(t.wall_ms - t.direct_ms, t.direct_ms), "%");
  if (share(unattributed, t.wall_ms) >= 0.05)
    out.errors.push_back(
        "layer spans leave 5% or more of the replay unattributed");
}

/// One direct cold tune on a fresh catalog evaluator, timed. Traced, the
/// tune is also replayed through the layers (before or after the direct
/// tune, alternating, so neither side always finds warm caches), and a
/// replay that disagrees with it is a gate failure.
///
/// Every evaluator comes from the catalog, which gives each one a fresh
/// TimingModel. Two BenchmarkEvaluators on one platform device would share
/// that device's noise counter, so the replay would see other noise than
/// the direct tune and disagree with it.
struct TimedTune {
  tuner::AutoTuneResult result;
  double ms = 0.0;
};

TimedTune tune_once(const serve::BenchmarkCatalog& catalog,
                    const serve::TuneKey& key, const tuner::AutoTuner& tuner,
                    std::uint64_t seed, const std::string& id,
                    std::uint64_t request, bool trace, Tracer& tracer,
                    LayerTally& tally, Outcome& out) {
  Decision replayed;
  const auto replay = [&] {
    const auto fresh = catalog.make_evaluator(key);
    replayed = replay_tune(*fresh, tuner.options(), seed, id, request, tracer,
                           tally);
  };
  if (trace && request % 2 == 1) replay();
  TimedTune t;
  const auto evaluator = catalog.make_evaluator(key);
  const auto start = Clock::now();
  t.result = tuner.tune(*evaluator, tuner::TuneRun::with_seed(seed));
  t.ms = ms_since(start);
  if (trace && request % 2 == 0) replay();
  if (trace) {
    tally.direct_ms += t.ms;
    if (!same_decision(decision_of(id, t.result), replayed))
      out.errors.push_back(id + ": traced replay differs from the direct tune");
  }
  return t;
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
};

// ---------------------------------------------------------- tune workloads

struct TuneCase {
  std::vector<serve::TuneKey> cells;
  tuner::AutoTunerOptions options;
  std::size_t passes = 1;
};

/// The cells, options and number of passes of a tune workload. The passes
/// are as many as fit in --seconds at the reference pass time (a 4-vCPU
/// x86-64 VM with AVX2), not as many as this host manages, so the tuned
/// seeds, and with them sim_cost_s, depend on --seed alone. A traced run
/// does every tune twice (direct and replayed) and makes one pass.
TuneCase tune_case(const RunArgs& args) {
  TuneCase c;
  const bool fit_bound = args.workload == "tune_fit_bound";
  const std::vector<std::string> kernels =
      fit_bound ? std::vector<std::string>{"convolution", "raycasting"}
                : std::vector<std::string>{"stereo"};
  for (const std::string& kernel : kernels)
    for (const char* device :
         {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970})
      c.cells.push_back(serve::TuneKey{kernel, device, "paper"});
  if (!fit_bound) c.options.training_samples = 200;
  const double reference_pass_s = fit_bound ? 12.0 : 9.0;
  if (!args.trace)
    c.passes = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.seconds / reference_pass_s));
  if (args.smoke) {
    c.options.training_samples = 200;
    c.cells = {c.cells[1]};  // the K40 cell
    c.passes = 1;
  }
  return c;
}

/// Structural check of one cold tune: the stage budgets were spent as
/// configured and a reported winner is a real, timed configuration.
std::string check_tune(const tuner::AutoTuneResult& r,
                       const tuner::ParamSpace& space,
                       const tuner::AutoTunerOptions& o) {
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(o.training_samples, space.size()));
  if (r.stage1_measured != n)
    return "stage 1 measured " + std::to_string(r.stage1_measured);
  if (r.stage1_valid != 0 && r.stage2_measured != o.second_stage_size)
    return "stage 2 measured " + std::to_string(r.stage2_measured);
  if (r.success && (r.best_config.values.size() != space.dimension_count() ||
                    !(r.best_time_ms > 0.0) || !std::isfinite(r.best_time_ms)))
    return "malformed winner";
  return "";
}

/// One set-up of a tune workload: the catalog and one evaluator per cell.
double tune_setup_s(const std::vector<serve::TuneKey>& cells) {
  const auto start = Clock::now();
  const serve::BenchmarkCatalog catalog;
  for (const auto& cell : cells)
    if (catalog.make_evaluator(cell) == nullptr)
      throw std::runtime_error("unknown cell " + cell.to_string());
  return ms_since(start) / 1000.0;
}

Outcome run_tune_workload(const RunArgs& args, Tracer& tracer) {
  const TuneCase c = tune_case(args);
  const std::string label = args.workload + (args.smoke ? ".smoke" : "");
  const std::size_t cells = c.cells.size();
  Outcome out;
  std::vector<double> setup_reps;

  const serve::BenchmarkCatalog catalog;
  const tuner::AutoTuner tuner(c.options);
  std::vector<std::vector<double>> host_ms(cells), sim_ms(cells),
      best_ms(cells);
  std::vector<double> latencies;
  std::size_t no_prediction = 0;
  LayerTally tally;
  std::vector<tuner::ParamSpace> spaces;
  for (const auto& key : c.cells)
    spaces.push_back(catalog.make_evaluator(key)->space());

  // Closed loop, c.passes times over the cells; each tune gets its own seed
  // and is preceded by one set-up.
  for (std::size_t i = 0; i < c.passes * cells; ++i) {
    setup_reps.push_back(tune_setup_s(c.cells));
    const std::size_t cell = i % cells;
    const serve::TuneKey& key = c.cells[cell];
    const std::uint64_t seed = derive_seed(args.seed, kCellStream, i);
    const std::string id = cell_id(label, key, seed);
    ++out.attempted;
    const TimedTune t = tune_once(catalog, key, tuner, seed, id, i, args.trace,
                                  tracer, tally, out);
    const tuner::AutoTuneResult& r = t.result;
    if (const std::string bad = check_tune(r, spaces[cell], c.options);
        !bad.empty())
      out.errors.push_back(id + ": " + bad);
    host_ms[cell].push_back(t.ms);
    latencies.push_back(t.ms);
    sim_ms[cell].push_back(r.data_gathering_cost_ms);
    if (r.success)
      best_ms[cell].push_back(r.best_time_ms);
    else
      ++no_prediction;
    out.decisions.push_back(decision_of(id, r));
  }

  const double n = count(out.attempted);
  const double setup_s = common::median(setup_reps);
  if (args.trace) {
    add_layer_metrics(tally, out);
    out.metric("serve.tunes_executed", 0.0, "count");
    out.metric("serve.coalesced", 0.0, "count");
    out.metric("serve.retunes", 0.0, "count");
    out.metric("serve.hit_share", 0.0, "ratio");
    out.metric("no_prediction_share", count(no_prediction) / n, "ratio");
    out.note("setup_s", setup_s, "s");
  } else {
    out.metric("cold_tune_ms", mean_of_means(host_ms), "ms");
    out.metric("setup_s", setup_s, "s");
  }
  // Not a summary metric: on tune_scan_bound it is set by a few very slow
  // stereo configurations in the i7's random stage-1 sample, so it swings by
  // a third from one --seed to the next (README, "Spread").
  out.note("sim_cost_s", mean_of_means(sim_ms) / 1000.0, "s");
  out.note("tune_wall_s", mean_of_means(host_ms) * count(cells) / 1000.0,
           "s");
  out.note("passes", n / count(cells), "count");
  out.note("req_p50_ms", common::quantile(latencies, 0.5), "ms");
  out.note("req_p90_ms", common::quantile(latencies, 0.9), "ms");
  out.note("best_ms_geomean", geomean_of_geomeans(best_ms), "ms");
  out.note("no_prediction", count(no_prediction), "count");
  for (std::size_t cell = 0; cell < cells; ++cell)
    out.note("cell_ms." + c.cells[cell].kernel + "@" + c.cells[cell].device,
             common::mean(host_ms[cell]), "ms");
  return out;
}

// ------------------------------------------------------------ serve_mixed

/// ext_serve's reduced budgets: every served tune still samples, trains an
/// ensemble, scans the whole space and measures its candidates.
tuner::AutoTunerOptions serve_tuner_options() {
  tuner::AutoTunerOptions o;
  o.training_samples = 80;
  o.second_stage_size = 16;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 150;
  return o;
}

std::vector<serve::TuneKey> serve_keys() {
  std::vector<serve::TuneKey> keys;
  for (const char* kernel : {"convolution", "raycasting"})
    for (const char* device :
         {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970})
      keys.push_back(serve::TuneKey{kernel, device, "small"});
  return keys;
}

/// A warmed service. The catalog is declared first so it outlives the
/// service, whose evaluator factory refers to it.
struct ServeSetup {
  std::unique_ptr<serve::BenchmarkCatalog> catalog;
  std::unique_ptr<serve::TuneService> service;
  std::vector<serve::TuneResponse> warm;      // per key, the stored answer
  std::vector<serve::TuneResponse> attempts;  // every warm-up answer
};

ServeSetup build_service(const std::vector<serve::TuneKey>& keys) {
  ServeSetup s;
  s.catalog = std::make_unique<serve::BenchmarkCatalog>();
  serve::TuneServiceOptions options;
  options.workers = kServeWorkers;
  // Far above any backlog a stable run builds, so admission never rejects.
  options.queue_capacity = 1U << 16U;
  options.tuner = serve_tuner_options();
  options.store.catalog_version = s.catalog->version();
  s.service =
      std::make_unique<serve::TuneService>(options, s.catalog->factory());
  s.warm.resize(keys.size());
  std::vector<std::size_t> pending(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) pending[k] = k;
  for (std::uint64_t seed = kWarmSeed; !pending.empty(); ++seed) {
    if (seed == kWarmSeed + kWarmAttempts)
      throw std::runtime_error("no warm-up seed gives a prediction for " +
                               keys[pending.front()].to_string());
    std::vector<std::future<serve::TuneResponse>> futures;
    for (const std::size_t k : pending) {
      serve::TuneRequest request;
      request.key = keys[k];
      request.seed = seed;
      futures.push_back(s.service->submit("warmup", std::move(request)));
    }
    std::vector<std::size_t> retry;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const serve::TuneResponse r = futures[j].get();
      s.attempts.push_back(r);
      if (r.status == serve::ResponseStatus::kOk)
        s.warm[pending[j]] = r;
      else if (r.status == serve::ResponseStatus::kNoPrediction)
        retry.push_back(pending[j]);
      else
        throw std::runtime_error("warm-up failed for " + r.key.to_string() +
                                 ": " + r.error);
    }
    pending = std::move(retry);
  }
  return s;
}

enum class Kind { kCold, kRepeat, kPredict };

struct Planned {
  double due_ms = 0.0;
  Kind kind = Kind::kRepeat;
  std::size_t key = 0;
  std::uint64_t seed = 0;
  tuner::Configuration config;  // predicts only
};

/// The open-loop schedule: Poisson arrivals at kServeRate for `seconds`,
/// the mix stratified per block of kMixBlock requests (shuffled within the
/// block), keys taken round-robin per kind. Repeats and predicts go to the
/// stored (key, warm seed) pairs; a predict prices a random configuration.
std::vector<Planned> plan_schedule(
    std::uint64_t seed, double seconds,
    const std::vector<std::uint64_t>& warm_seeds,
    const std::vector<const tuner::ParamSpace*>& spaces) {
  const std::size_t keys = warm_seeds.size();
  common::Rng rng(derive_seed(seed, kScheduleStream, 0));
  std::vector<Planned> plan;
  std::vector<Kind> block;
  std::size_t colds = 0;
  std::size_t repeats = 0;
  std::size_t predicts = 0;
  double t_ms = 0.0;
  for (;;) {
    t_ms += -std::log(1.0 - rng.uniform()) * 1000.0 / kServeRate;
    if (t_ms >= 1000.0 * seconds) break;
    if (block.empty()) {
      block.assign(kMixBlock, Kind::kRepeat);
      for (std::size_t i = 0; i < kMixCold; ++i) block[i] = Kind::kCold;
      for (std::size_t i = 0; i < kMixPredict; ++i)
        block[kMixCold + i] = Kind::kPredict;
      rng.shuffle(block);
    }
    Planned p;
    p.due_ms = t_ms;
    p.kind = block.back();
    block.pop_back();
    if (p.kind == Kind::kCold) {
      p.key = colds % keys;
      p.seed = derive_seed(seed, kColdStream, colds);
      ++colds;
    } else if (p.kind == Kind::kRepeat) {
      p.key = repeats++ % keys;
      p.seed = warm_seeds[p.key];
    } else {
      p.key = predicts++ % keys;
      p.seed = warm_seeds[p.key];
      const tuner::ParamSpace& space = *spaces[p.key];
      p.config = space.decode(rng.below(space.size()));
    }
    plan.push_back(std::move(p));
  }
  return plan;
}

Decision served_decision(std::string id, const serve::TuneResponse& r,
                         serve::TuneService& service) {
  Decision d;
  d.id = std::move(id);
  d.success = r.status == serve::ResponseStatus::kOk;
  if (d.success) {
    d.best = r.best_config;
    d.best_time_ms = r.best_time_ms;
    if (const auto entry = service.store().lookup(r.key, r.seed))
      d.sim_cost_ms = entry->data_gathering_cost_ms;
  }
  return d;
}

Outcome run_serve_workload(const RunArgs& args, Tracer& tracer) {
  // Smoke only shortens the run, so its decisions share the full run's ids.
  const std::string& label = args.workload;
  const double seconds =
      args.smoke ? std::min(args.seconds, 3.0) : args.seconds;
  const std::vector<serve::TuneKey> keys = serve_keys();
  Outcome out;

  std::vector<double> setup_reps;
  const auto timed_setup = [&] {
    const auto start = Clock::now();
    ServeSetup next = build_service(keys);
    setup_reps.push_back(ms_since(start) / 1000.0);
    return next;
  };
  ServeSetup s;
  for (std::size_t r = 0; r < kServeSetupRepeats; ++r) {
    ServeSetup next = timed_setup();
    s.service.reset();  // shut down before its catalog goes
    s = std::move(next);
  }
  serve::TuneService& service = *s.service;

  std::vector<std::unique_ptr<tuner::Evaluator>> key_evaluators;
  std::vector<const tuner::ParamSpace*> spaces;
  std::vector<std::uint64_t> warm_seeds;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    key_evaluators.push_back(s.catalog->make_evaluator(keys[k]));
    spaces.push_back(&key_evaluators.back()->space());
    warm_seeds.push_back(s.warm[k].seed);
  }
  for (const serve::TuneResponse& w : s.attempts)
    out.decisions.push_back(served_decision(
        cell_id(label + "/warm", w.key, w.seed), w, service));

  const std::vector<Planned> plan =
      plan_schedule(args.seed, seconds, warm_seeds, spaces);
  const serve::TuneServiceStats before = service.stats();

  // ---- measured window: one generator thread (this one) submits on time.
  struct Sent {
    double lag_ms = 0.0;
    std::future<serve::TuneResponse> future;
  };
  std::vector<Sent> sent;
  sent.reserve(plan.size());
  std::vector<double> submit_us;
  std::vector<double> lookup_us;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(p.due_ms));
    std::this_thread::sleep_until(due);
    serve::TuneRequest request;
    request.key = keys[p.key];
    request.seed = p.seed;
    request.kind = p.kind == Kind::kPredict ? serve::RequestKind::kPredict
                                            : serve::RequestKind::kTune;
    request.allow_cached = p.kind != Kind::kCold;
    if (p.kind == Kind::kPredict) {
      request.config = p.config;
      if (args.trace) {
        const auto t0 = Clock::now();
        const auto entry = service.store().lookup(request.key, request.seed);
        lookup_us.push_back(1000.0 * ms_since(t0));
        if (!entry) out.errors.push_back("stored pair missing from the store");
      }
    }
    const auto submitted = Clock::now();
    Sent x;
    x.lag_ms = ms_between(due, submitted);
    x.future = service.submit("tenant-" + std::to_string(i % kServeTenants),
                              std::move(request));
    if (args.trace) submit_us.push_back(1000.0 * ms_since(submitted));
    sent.push_back(std::move(x));
  }

  // ---- collect. Latency runs from the due time: generator lag plus the
  // service's admission-to-answer time.
  std::vector<double> all_ms, hit_ms, lag_ms, cold_all_ms;
  std::vector<std::vector<double>> cold_ms(keys.size()), cold_sim(keys.size()),
      cold_best(keys.size());
  std::vector<std::size_t> cold_index;  // plan indices of cold requests
  std::vector<serve::TuneResponse> cold_responses;
  std::size_t hits = 0, retunes = 0, no_prediction = 0, repeat_or_predict = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Planned& p = plan[i];
    const serve::TuneResponse r = sent[i].future.get();
    const double latency = sent[i].lag_ms + r.latency_ms;
    ++out.attempted;
    all_ms.push_back(latency);
    lag_ms.push_back(sent[i].lag_ms);
    const bool ok = r.status == serve::ResponseStatus::kOk;
    const bool no_pred = r.status == serve::ResponseStatus::kNoPrediction;
    if (!ok && !no_pred) {
      ++out.failed;
      continue;
    }
    if (no_pred) ++no_prediction;
    if (p.kind != Kind::kCold) ++repeat_or_predict;
    if (ok && r.from_cache) {
      ++hits;
      hit_ms.push_back(latency);
    }
    switch (p.kind) {
      case Kind::kCold: {
        cold_ms[p.key].push_back(latency);
        cold_all_ms.push_back(latency);
        const Decision d = served_decision(cell_id(label, keys[p.key], p.seed),
                                           r, service);
        if (d.success) {
          cold_best[p.key].push_back(d.best_time_ms);
          cold_sim[p.key].push_back(d.sim_cost_ms);
        }
        out.decisions.push_back(d);
        cold_index.push_back(i);
        cold_responses.push_back(r);
        break;
      }
      case Kind::kRepeat: {
        // A repeat must give the stored warm-up answer.
        const serve::TuneResponse& w = s.warm[p.key];
        if (!r.from_cache) ++retunes;
        if (r.status != w.status ||
            (ok && (r.best_config != w.best_config ||
                    r.best_time_ms != w.best_time_ms)))
          out.errors.push_back("repeat of " + keys[p.key].to_string() +
                               " differs from its warm-up answer");
        break;
      }
      case Kind::kPredict:
        if (!ok || !(r.predicted_ms > 0.0))
          out.errors.push_back("predict on " + keys[p.key].to_string() +
                               " gave no positive price");
        break;
    }
  }
  const serve::TuneServiceStats after = service.stats();

  // ---- gate: the first cold answers equal a direct tune at the same key
  // and seed (traced: and a replay through the layers equals both).
  const tuner::AutoTuner direct_tuner(serve_tuner_options());
  LayerTally tally;
  std::vector<double> cold_wait_ms;
  const std::size_t probes = std::min(kProbeColdTunes, cold_index.size());
  for (std::size_t j = 0; j < probes; ++j) {
    const Planned& p = plan[cold_index[j]];
    const std::string id = cell_id(label, keys[p.key], p.seed);
    const TimedTune t = tune_once(*s.catalog, keys[p.key], direct_tuner, p.seed,
                                  id, j, args.trace, tracer, tally, out);
    Decision direct = decision_of(id, t.result);
    if (!direct.success)  // a served no-prediction carries no cost
      direct.sim_cost_ms = std::numeric_limits<double>::quiet_NaN();
    if (!same_decision(served_decision(id, cold_responses[j], service), direct))
      out.errors.push_back(id + ": served answer differs from the direct tune");
    cold_wait_ms.push_back(sent[cold_index[j]].lag_ms +
                           cold_responses[j].latency_ms - t.ms);
  }

  for (std::size_t r = 0; r < kServeSetupRepeats; ++r) timed_setup();
  const double setup_s = common::median(setup_reps);
  const double attempted = count(out.attempted);
  if (args.trace) {
    add_layer_metrics(tally, out);
    out.metric("serve.tunes_executed",
               count(after.tunes_executed - before.tunes_executed), "count");
    out.metric("serve.coalesced", count(after.coalesced - before.coalesced),
               "count");
    out.metric("serve.retunes", count(retunes), "count");
    out.metric("serve.hit_share", share(count(hits), count(repeat_or_predict)),
               "ratio");
    out.metric("no_prediction_share", share(count(no_prediction), attempted),
               "ratio");
    out.note("serve.submit_us.p50", quantile_or_zero(submit_us, 0.5), "us");
    out.note("serve.submit_us.p99", quantile_or_zero(submit_us, 0.99), "us");
    out.note("store.lookup_us.p50", quantile_or_zero(lookup_us, 0.5), "us");
    out.note("store.lookup_us.p99", quantile_or_zero(lookup_us, 0.99), "us");
    out.note("serve.cold_wait_ms", common::mean(cold_wait_ms), "ms");
    out.note("setup_s", setup_s, "s");
  } else {
    out.metric("cold_tune_ms", mean_of_means(cold_ms), "ms");
    out.metric("setup_s", setup_s, "s");
  }
  out.note("sim_cost_s", mean_of_means(cold_sim) / 1000.0, "s");
  out.note("cold_requests", count(cold_all_ms.size()), "count");
  out.note("cold_p50_ms", quantile_or_zero(cold_all_ms, 0.5), "ms");
  out.note("cold_p90_ms", quantile_or_zero(cold_all_ms, 0.9), "ms");
  out.note("hit_p50_ms", quantile_or_zero(hit_ms, 0.5), "ms");
  out.note("hit_p90_ms", quantile_or_zero(hit_ms, 0.9), "ms");
  out.note("hit_p99_ms", quantile_or_zero(hit_ms, 0.99), "ms");
  out.note("req_p50_ms", quantile_or_zero(all_ms, 0.5), "ms");
  out.note("req_p90_ms", quantile_or_zero(all_ms, 0.9), "ms");
  out.note("req_p99_ms", quantile_or_zero(all_ms, 0.99), "ms");
  out.note("best_ms_geomean", geomean_of_geomeans(cold_best), "ms");
  out.note("gen.late_p99_ms", quantile_or_zero(lag_ms, 0.99), "ms");
  out.note("retunes", count(retunes), "count");
  out.note("no_prediction", count(no_prediction), "count");
  return out;
}

// ------------------------------------------------------------------ output

json::Value metrics_json(const std::vector<Metric>& metrics) {
  json::Value m = json::Value::object();
  for (const Metric& metric : metrics) {
    json::Value v = json::Value::object();
    v.set("value", metric.value);
    v.set("unit", metric.unit);
    m.set(metric.name, std::move(v));
  }
  return m;
}

json::Value decisions_json(const std::vector<Decision>& decisions) {
  json::Value all = json::Value::array();
  for (const Decision& d : decisions) {
    json::Value config = json::Value::array();
    for (const int v : d.best.values) config.push(v);
    json::Value e = json::Value::object();
    e.set("id", d.id);
    e.set("success", d.success);
    e.set("best_config", std::move(config));
    e.set("best_time_ms", d.best_time_ms);
    e.set("sim_cost_ms", d.sim_cost_ms);  // NaN is written as null
    all.push(std::move(e));
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs cli(argc, argv);
  RunArgs args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get("seed", 1L));
  args.seconds = cli.get("seconds", 30.0);
  args.trace = cli.get("trace", 0L) != 0;
  args.smoke = cli.get("smoke", false);
  if (args.workload != "tune_fit_bound" && args.workload != "tune_scan_bound" &&
      args.workload != "serve_mixed") {
    std::cerr << "usage: e2e_tune --workload=tune_fit_bound|tune_scan_bound|"
                 "serve_mixed [--seed=S] [--seconds=T] [--trace=0|1] [--smoke]"
                 " [--out=FILE] [--trace-out=FILE]\n";
    return 1;
  }
  // Expected no-prediction cells log warnings; keep the output to metrics.
  common::set_log_level(common::LogLevel::kError);
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  common::set_global_pool_threads(std::min<std::size_t>(4, hw));

  Tracer tracer;
  Outcome out;
  try {
    out = args.workload == "serve_mixed" ? run_serve_workload(args, tracer)
                                         : run_tune_workload(args, tracer);
  } catch (const std::exception& e) {
    std::cerr << "e2e_tune: " << e.what() << "\n";
    return 2;
  }

  std::cout << "workload " << args.workload << (args.smoke ? " (smoke)" : "")
            << ", seed " << args.seed << ", "
            << (args.trace ? "traced" : "untraced")
            << ", pool threads " << common::global_pool().size() << "\n";
  for (const auto* group : {&out.metrics, &out.notes})
    for (const Metric& m : *group)
      std::cout << "  " << m.name << " = " << json::number_to_string(m.value)
                << " " << m.unit << "\n";
  for (const std::string& error : out.errors)
    std::cout << "GATE FAILED: " << error << "\n";

  if (const std::string path = cli.get("out", ""); !path.empty()) {
    json::Value report = json::Value::object();
    report.set("workload", args.workload);
    report.set("seed", static_cast<double>(args.seed));
    report.set("trace", args.trace);
    report.set("smoke", args.smoke);
    report.set("metrics", metrics_json(out.metrics));
    report.set("notes", metrics_json(out.notes));
    report.set("decisions", decisions_json(out.decisions));
    if (!json::write_file(report, path)) {
      std::cerr << "e2e_tune: cannot write " << path << "\n";
      return 2;
    }
  }
  if (const std::string path = cli.get("trace-out", "");
      args.trace && !path.empty() &&
      !json::write_file(tracer.chrome_trace(), path)) {
    std::cerr << "e2e_tune: cannot write " << path << "\n";
    return 2;
  }

  const bool correct = out.errors.empty();
  json::Value summary = json::Value::object();
  summary.set("correct", correct);
  summary.set("attempted", count(out.attempted));
  summary.set("failed", count(out.failed));
  summary.set("metrics", metrics_json(out.metrics));
  summary.write(std::cout, 0);
  std::cout << "\n";
  return correct ? 0 : 3;
}
