// Extension bench: tuner robustness under measurement noise and injected
// faults. Sweeps log-normal timing noise (sigma) crossed with fault-injection
// profiles (transient launch failures, spurious-invalid verdicts, timing
// outliers) on convolution, and reports how well the two-stage tuner holds
// up when its measurements lie to it.
//
// Stack per cell (outermost first):
//
//   RobustEvaluator -> FaultInjectingEvaluator -> NoisyEvaluator -> cache
//
// built with the fluent EvaluatorStack (tuner/stack.hpp). The
// CachingEvaluator sits *innermost* here (unlike the production stack in
// DESIGN.md) so the expensive simulated measurements are paid once and the
// injectors re-corrupt cached clean values per attempt; the exhaustive
// ground-truth sweep shares the same cache. Tuning quality is judged on the
// *clean* time of the chosen configuration vs the clean global optimum, so
// noise can only hurt via worse choices, not via luckier draws.
//
// Stage 2 is filtered by clstat (TunerOptions::static_checker) over
// convolution's complete constraint set, so every stage-2 candidate is one
// the driver accepts: a stage-2 invalid verdict here is an injected one.
//
// Flags:
//   --out=FILE    JSON report path (default ext_noise.json)
//   --device=D    device name (default the Nvidia K40)
//   --repeats=N   tuner runs per cell (default 2)
//   --seed=S      base RNG seed (default 1)
//   --full        larger sweep and budgets (slower, same shape)
//   --csv         additionally print the summary table as CSV

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "report.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/robust.hpp"
#include "tuner/search.hpp"
#include "tuner/stack.hpp"

namespace {

struct FaultProfile {
  std::string label;
  double transient_rate = 0.0;
  double spurious_rate = 0.0;
  double outlier_rate = 0.0;
};

struct CellReport {
  double sigma = 0.0;
  FaultProfile profile;
  std::size_t successes = 0;
  std::size_t repeats = 0;
  pt::common::RunningStats slowdown;  // clean chosen time / clean optimum
  pt::common::RunningStats attempts_per_measurement;
  std::size_t transient_faults = 0;
  std::size_t stage2_invalid = 0;
  std::size_t retry_exhausted = 0;
  double tuning_cost_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const bool full = args.get("full", false);
  bench::print_banner(
      "Extension: tuning under measurement noise and injected faults "
      "(convolution)",
      full);
  const auto out_path = args.get("out", "ext_noise.json");
  const auto device_name =
      args.get("device", std::string(archsim::kNvidiaK40));
  const auto repeats = static_cast<std::size_t>(args.get("repeats", 2L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark("convolution");
  const clsim::Device device = platform.device_by_name(device_name);
  benchkit::BenchmarkEvaluator inner(*bench_obj, device);
  tuner::CachingEvaluator clean(inner);
  const auto checker = std::make_shared<const clsim::analyze::StaticChecker>(
      benchkit::make_static_checker(*bench_obj, device));

  // Clean exhaustive ground truth (shared cache with the tuner runs below).
  const tuner::SearchResult truth = tuner::exhaustive_search(clean);
  if (!truth.success) {
    std::cerr << "no valid configuration on " << device_name << "\n";
    return 1;
  }
  std::cout << device_name << ": clean optimum "
            << common::fmt_time_ms(truth.best_time_ms) << " over "
            << clean.space().size() << " configurations\n";

  std::vector<double> sigmas = {0.0, 0.1, 0.3};
  std::vector<FaultProfile> profiles = {
      {"none", 0.0, 0.0, 0.0},
      {"faulty", 0.10, 0.10, 0.05},
  };
  if (full) {
    sigmas.push_back(0.5);
    profiles.push_back({"hostile", 0.25, 0.30, 0.10});
  }

  const std::size_t training = full ? 2000 : 800;
  const std::size_t second_stage = full ? 100 : 50;

  std::vector<CellReport> cells;
  for (const double sigma : sigmas) {
    for (const auto& profile : profiles) {
      CellReport cell;
      cell.sigma = sigma;
      cell.profile = profile;
      cell.repeats = repeats;
      for (std::size_t r = 0; r < repeats; ++r) {
        const std::uint64_t run_seed = seed + 1000 * r;
        auto stack =
            tuner::EvaluatorStack::wrap(clean)
                .noisy({.sigma = sigma, .seed = run_seed + 1})
                .fault_injecting({.transient_rate = profile.transient_rate,
                                  .spurious_rate = profile.spurious_rate,
                                  .outlier_rate = profile.outlier_rate,
                                  .seed = run_seed + 2})
                .robust({.repeats = sigma > 0.0 || profile.outlier_rate > 0.0
                                        ? std::size_t{3}
                                        : std::size_t{1},
                         .max_retries = 3});

        tuner::AutoTunerOptions opts;
        opts.training_samples = training;
        opts.second_stage_size = second_stage;
        opts.static_checker = checker;
        const tuner::AutoTuneResult result = tuner::AutoTuner(opts).tune(
            stack, tuner::TuneRun::with_seed(run_seed));

        cell.transient_faults += result.transient_faults;
        cell.stage2_invalid += result.stage2_invalid;
        cell.retry_exhausted += stack.layer<tuner::RobustEvaluator>()->exhausted();
        cell.tuning_cost_ms += result.data_gathering_cost_ms;
        const std::size_t measured =
            result.stage1_measured + result.stage2_measured;
        if (measured > 0)
          cell.attempts_per_measurement.add(
              static_cast<double>(result.measure_attempts) /
              static_cast<double>(measured));
        if (result.success) {
          ++cell.successes;
          // Judge on the clean time of the chosen configuration.
          const tuner::Measurement verdict = clean.measure(result.best_config);
          if (verdict.valid)
            cell.slowdown.add(verdict.time_ms / truth.best_time_ms);
        }
      }
      std::cout << "  sigma=" << cell.sigma << " faults=" << profile.label
                << ": " << cell.successes << "/" << repeats << " ok"
                << (cell.slowdown.count()
                        ? ", mean clean slowdown " +
                              common::fmt(cell.slowdown.mean(), 3)
                        : "")
                << "\n"
                << std::flush;
      cells.push_back(cell);
    }
  }

  common::Table table({"Sigma", "Faults", "Successes", "Clean slowdown",
                       "Attempts/meas", "Transients", "Stage-2 invalid"});
  for (const auto& cell : cells) {
    table.add_row(
        {common::fmt(cell.sigma, 1), cell.profile.label,
         std::to_string(cell.successes) + "/" + std::to_string(cell.repeats),
         cell.slowdown.count() ? common::fmt(cell.slowdown.mean(), 3)
                               : std::string("no prediction"),
         common::fmt(cell.attempts_per_measurement.mean(), 2),
         std::to_string(cell.transient_faults),
         std::to_string(cell.stage2_invalid)});
  }
  std::cout << "\n";
  table.print(std::cout);
  if (args.get("csv", false)) table.print_csv(std::cout);

  bench::ReportWriter report;
  report.set("device", device_name)
      .set("benchmark", "convolution")
      .set("clean_optimum_ms", truth.best_time_ms)
      .set("training_samples", training)
      .set("second_stage_size", second_stage)
      .set("repeats", repeats);
  common::json::Value cells_json = common::json::Value::array();
  for (const auto& cell : cells) {
    common::json::Value entry = common::json::Value::object();
    entry.set("sigma", cell.sigma);
    entry.set("faults", cell.profile.label);
    entry.set("transient_rate", cell.profile.transient_rate);
    entry.set("spurious_rate", cell.profile.spurious_rate);
    entry.set("outlier_rate", cell.profile.outlier_rate);
    entry.set("successes", cell.successes);
    entry.set("repeats", cell.repeats);
    entry.set("mean_clean_slowdown",
              cell.slowdown.count() ? cell.slowdown.mean() : 0.0);
    entry.set("mean_attempts_per_measurement",
              cell.attempts_per_measurement.mean());
    entry.set("transient_faults", cell.transient_faults);
    entry.set("stage2_invalid", cell.stage2_invalid);
    entry.set("retry_exhausted", cell.retry_exhausted);
    entry.set("tuning_cost_ms", cell.tuning_cost_ms);
    cells_json.push(std::move(entry));
  }
  report.root().set("cells", std::move(cells_json));
  report.attach_telemetry(nullptr);
  report.write(out_path);
  return 0;
}
