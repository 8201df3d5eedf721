// Extension bench: iterative (active-learning) tuning vs the paper's
// one-shot two-stage tuner at an equal measurement budget, on convolution
// for the three main devices. Reported as slowdown vs the exhaustive global
// optimum plus the iterative tuner's convergence trace.

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/iterative.hpp"
#include "tuner/search.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  bench::print_banner(
      "Extension: iterative active-learning tuner vs one-shot (convolution)",
      false);
  const auto budget = static_cast<std::size_t>(args.get("budget", 1200L));
  const auto repeats = static_cast<std::size_t>(args.get("repeats", 2L));

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark("convolution");

  common::Table table(
      {"Device", "Strategy", "Slowdown vs optimum", "Successes"});
  for (const auto& device_name : bench::main_devices()) {
    benchkit::BenchmarkEvaluator inner(
        *bench_obj, platform.device_by_name(device_name));
    tuner::CachingEvaluator eval(inner);
    const double optimum = tuner::exhaustive_search(eval).best_time_ms;

    common::RunningStats one_shot;
    common::RunningStats iterative;
    std::size_t one_shot_ok = 0;
    std::size_t iterative_ok = 0;
    std::vector<double> last_trace;
    for (std::size_t r = 0; r < repeats; ++r) {
      {
        tuner::AutoTunerOptions opts;
        opts.training_samples = budget - 100;
        opts.second_stage_size = 100;
        const auto result = tuner::AutoTuner(opts).tune(
            eval, tuner::TuneRun::with_seed(300 + r));
        if (result.success) {
          ++one_shot_ok;
          one_shot.add(result.best_time_ms / optimum);
        }
      }
      {
        tuner::IterativeTunerOptions opts;
        opts.measurement_budget = budget;
        opts.initial_samples = budget / 3;
        opts.batch_size = budget / 6;
        const auto result = tuner::IterativeTuner(opts).tune(
            eval, tuner::TuneRun::with_seed(300 + r));
        if (result.success) {
          ++iterative_ok;
          iterative.add(result.best_time_ms / optimum);
          last_trace = result.incumbent_trace;
        }
      }
    }
    table.add_row({device_name, "one-shot two-stage (paper)",
                   one_shot.count() ? common::fmt(one_shot.mean(), 3)
                                    : std::string("no prediction"),
                   std::to_string(one_shot_ok) + "/" +
                       std::to_string(repeats)});
    table.add_row({device_name, "iterative active-learning",
                   iterative.count() ? common::fmt(iterative.mean(), 3)
                                     : std::string("no prediction"),
                   std::to_string(iterative_ok) + "/" +
                       std::to_string(repeats)});
    if (!last_trace.empty()) {
      std::cout << "  " << device_name << " iterative incumbent trace:";
      for (const double t : last_trace)
        std::cout << " " << common::fmt(t / optimum, 2) << "x";
      std::cout << "\n";
    }
    std::cout << "  [" << device_name << " done]\n" << std::flush;
  }
  std::cout << "\n";
  table.print(std::cout);
  if (args.get("csv", false)) table.print_csv(std::cout);
  return 0;
}
