// Extension bench: invalid configurations in the second stage (the paper's
// future work, sections 7-8) on the paper's hardest case — stereo on the
// GPUs, where the baseline tuner's second stage is frequently all-invalid
// ("the auto-tuner gives no prediction at all"). Compares, per device:
//   baseline tuner  (invalid configurations ignored, as in the paper)
//   + clstat filter (stage-2 candidates the static checker proves invalid,
//                    from the benchmark's declared constraints, never enter
//                    the top M)
// reporting success rate, result quality vs a random baseline, and the
// stage-2 configurations that measured invalid.
//
// Exits non-zero when the clstat variant gives no prediction, or measures
// an invalid stage-2 configuration, on any device: stereo's constraint set
// is complete, so either means the checker and the driver disagree.
//
// Flags: --training=N (1500), --m=M (150), --repeats=R (2),
//        --baseline=N random-search samples (10000), --csv

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "benchmarks/benchmark.hpp"
#include "common/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/search.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  bench::print_banner(
      "Extension: clstat static filter for the second stage (stereo)", false);
  const auto training = static_cast<std::size_t>(args.get("training", 1500L));
  const auto m = static_cast<std::size_t>(args.get("m", 150L));
  const auto repeats = static_cast<std::size_t>(args.get("repeats", 2L));
  const auto baseline_n =
      static_cast<std::size_t>(args.get("baseline", 10000L));

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark("stereo");

  common::Table table({"Device", "Variant", "Successes",
                       "Slowdown vs random baseline", "Stage-2 invalid"});
  bool clstat_failed = false;
  for (const auto& device_name : bench::main_devices()) {
    const clsim::Device device = platform.device_by_name(device_name);
    benchkit::BenchmarkEvaluator inner(*bench_obj, device);
    tuner::CachingEvaluator eval(inner);
    common::Rng baseline_rng(42);
    const auto random_best =
        tuner::random_search(eval, baseline_n, baseline_rng);
    if (!random_best.success) continue;
    const auto checker = std::make_shared<const clsim::analyze::StaticChecker>(
        benchkit::make_static_checker(*bench_obj, device));

    for (const bool use_clstat : {false, true}) {
      common::RunningStats slowdown;
      common::RunningStats stage2_invalid;
      std::size_t successes = 0;
      for (std::size_t r = 0; r < repeats; ++r) {
        tuner::AutoTunerOptions opts;
        opts.training_samples = training;
        opts.second_stage_size = m;
        if (use_clstat) opts.static_checker = checker;
        common::Rng rng(7000 + r);
        const auto result = tuner::AutoTuner(opts).tune(
            eval, tuner::TuneRun::with_rng(rng));
        stage2_invalid.add(static_cast<double>(result.stage2_invalid));
        if (use_clstat && (!result.success || result.stage2_invalid != 0))
          clstat_failed = true;
        if (!result.success) continue;
        ++successes;
        slowdown.add(result.best_time_ms / random_best.best_time_ms);
      }
      table.add_row(
          {device_name, use_clstat ? "with clstat filter" : "baseline (paper)",
           std::to_string(successes) + "/" + std::to_string(repeats),
           slowdown.count() ? common::fmt(slowdown.mean(), 3)
                            : std::string("no prediction"),
           common::fmt(stage2_invalid.mean(), 1)});
      std::cout << "  [" << device_name << " "
                << (use_clstat ? "clstat" : "baseline") << " done]\n"
                << std::flush;
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  if (args.get("csv", false)) table.print_csv(std::cout);
  if (clstat_failed) {
    std::cerr << "ablation_validity: the clstat variant gave no prediction "
                 "or measured an invalid stage-2 configuration\n";
    return 1;
  }
  return 0;
}
