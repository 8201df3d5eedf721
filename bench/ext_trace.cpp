// Extension bench: telemetry + observer demo. Runs the one-shot two-stage
// auto-tuner and the iterative tuner on one benchmark with a fully wired
// TuneRun — a console observer printing the live stage tree and a telemetry
// collector recording spans/counters for both runs — then writes the uniform
// metrics report plus a Chrome trace.
//
// This is the smallest end-to-end example of the observability surface:
//   - TunerObserver callbacks (stage tree, sample/epoch/candidate tallies),
//   - telemetry spans from the tuners, the scan, ML training and clsim,
//   - bench::ReportWriter with the "telemetry" section,
//   - the Chrome trace (load PREFIX.trace.json in chrome://tracing or
//     https://ui.perfetto.dev).
//
// Flags:
//   --out=PREFIX     output prefix (default ext_trace): writes PREFIX.json
//                    and PREFIX.trace.json
//   --device=D       device name (default the Nvidia K40)
//   --benchmark=B    benchmark name (default convolution)
//   --training=N     stage-1 training samples (default 500)
//   --second-stage=M second-stage size (default 50)
//   --budget=N       iterative measurement budget (default 600)
//   --seed=S         RNG seed (default 1)

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>

#include "bench_util.hpp"
#include "common/telemetry/telemetry.hpp"
#include "report.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"
#include "tuner/observer.hpp"
#include "tuner/stack.hpp"

namespace {

using namespace pt;

/// Prints the stage tree as it happens and tallies every callback kind.
class ConsoleObserver final : public tuner::TunerObserver {
 public:
  void on_stage_begin(std::string_view tuner,
                      std::string_view stage) override {
    std::cout << indent() << tuner << "/" << stage << "\n" << std::flush;
    ++depth_;
    ++stages;
  }
  void on_stage_end(std::string_view /*tuner*/,
                    std::string_view /*stage*/) override {
    if (depth_ > 0) --depth_;
  }
  void on_sample(std::string_view /*stage*/,
                 const tuner::Configuration& /*config*/,
                 const tuner::Measurement& /*m*/) override {
    ++samples;
  }
  void on_epoch(std::size_t member, std::size_t /*epoch*/, double train_loss,
                double /*monitored_loss*/) override {
    ++epochs;
    last_member = member;
    last_train_loss = train_loss;
  }
  void on_candidate(std::uint64_t /*index*/,
                    double /*predicted_ms*/) override {
    ++candidates;
  }
  void on_measurement(std::string_view /*stage*/,
                      const tuner::Configuration& /*config*/,
                      const tuner::Measurement& m) override {
    ++measurements;
    if (!m.valid) ++invalid_measurements;
  }

  std::size_t stages = 0;
  std::size_t samples = 0;
  std::size_t epochs = 0;
  std::size_t candidates = 0;
  std::size_t measurements = 0;
  std::size_t invalid_measurements = 0;
  std::size_t last_member = 0;
  double last_train_loss = 0.0;

 private:
  [[nodiscard]] std::string indent() const {
    return std::string(2 * depth_ + 2, ' ');
  }
  std::size_t depth_ = 0;
};

common::json::Value observer_json(const ConsoleObserver& obs) {
  common::json::Value out = common::json::Value::object();
  out.set("stages", obs.stages);
  out.set("samples", obs.samples);
  out.set("epochs", obs.epochs);
  out.set("candidates", obs.candidates);
  out.set("measurements", obs.measurements);
  out.set("invalid_measurements", obs.invalid_measurements);
  out.set("last_train_loss", obs.last_train_loss);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  bench::print_banner(
      "Extension: telemetry/observer demo (traced tuning runs)", false);
  const auto prefix = args.get("out", std::string("ext_trace"));
  const auto device_name =
      args.get("device", std::string(archsim::kNvidiaK40));
  const auto bench_name = args.get("benchmark", std::string("convolution"));
  const auto training = static_cast<std::size_t>(args.get("training", 500L));
  const auto second_stage =
      static_cast<std::size_t>(args.get("second-stage", 50L));
  const auto budget = static_cast<std::size_t>(args.get("budget", 600L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark(bench_name);
  benchkit::BenchmarkEvaluator inner(*bench_obj,
                                     platform.device_by_name(device_name));
  auto stack = tuner::EvaluatorStack::wrap(inner).cached().counting();
  std::cout << "evaluator stack: " << stack.description() << "\n";

  common::telemetry::Collector collector;
  tuner::TuneRun request = tuner::TuneRun::with_seed(seed);
  request.telemetry = &collector;

  // One-shot two-stage tuner, fully observed.
  ConsoleObserver one_shot_obs;
  tuner::AutoTuneResult one_shot;
  {
    tuner::AutoTunerOptions opts;
    opts.training_samples = training;
    opts.second_stage_size = second_stage;
    request.observer = &one_shot_obs;
    std::cout << "one-shot auto-tuner stages:\n";
    one_shot = tuner::AutoTuner(opts).tune(stack, request);
  }
  std::cout << "one-shot: "
            << (one_shot.success
                    ? common::fmt_time_ms(one_shot.best_time_ms)
                    : std::string("no prediction"))
            << ", " << one_shot_obs.samples << " samples, "
            << one_shot_obs.epochs << " epochs, " << one_shot_obs.candidates
            << " candidates, cache " << one_shot.cache_hits << " hits / "
            << one_shot.cache_misses << " misses\n\n";

  // Iterative tuner into the same collector (spans accumulate).
  ConsoleObserver iterative_obs;
  tuner::IterativeTuneResult iterative;
  {
    tuner::IterativeTunerOptions opts;
    opts.measurement_budget = budget;
    opts.initial_samples = budget / 3;
    opts.batch_size = budget / 6;
    request.observer = &iterative_obs;
    std::cout << "iterative tuner stages:\n";
    iterative = tuner::IterativeTuner(opts).tune(stack, request);
  }
  std::cout << "iterative: "
            << (iterative.success
                    ? common::fmt_time_ms(iterative.best_time_ms)
                    : std::string("no prediction"))
            << ", " << iterative_obs.measurements << " measurements ("
            << iterative_obs.invalid_measurements << " invalid), "
            << iterative_obs.epochs << " epochs\n\n";

  bench::ReportWriter report;
  report.set("device", device_name)
      .set("benchmark", bench_name)
      .set("training_samples", training)
      .set("second_stage_size", second_stage)
      .set("budget", budget)
      .set("seed", seed)
      .set("evaluator_stack", stack.description())
      .set("one_shot_best_ms", one_shot.success ? one_shot.best_time_ms : 0.0)
      .set("iterative_best_ms",
           iterative.success ? iterative.best_time_ms : 0.0);
  report.root().set("one_shot_observer", observer_json(one_shot_obs));
  report.root().set("iterative_observer", observer_json(iterative_obs));
  report.attach_telemetry(&collector);
  bench::write_chrome_trace(collector, prefix);
  report.write(prefix + ".json");
  return (one_shot.success && iterative.success) ? 0 : 1;
}
