// Device selection — the heterogeneous-scheduling question from the
// paper's related work (Grewe & O'Boyle; Ogilvie et al.): given a whole
// platform, *which device* should run the kernel, and with which
// configuration? Answered here by auto-tuning every device and comparing
// the tuned results, including the data-gathering cost it took to get them
// (tuning is an investment; the table shows both sides).
//
//   ./device_selection [--benchmark=raycasting] [--training=800]

#include <iostream>
#include <memory>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "tuner/autotuner.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const clsim::Platform platform = archsim::default_platform();
  const auto benchmark =
      benchkit::make_benchmark(args.get("benchmark", "raycasting"));

  tuner::AutoTunerOptions options;
  options.training_samples =
      static_cast<std::size_t>(args.get("training", 800L));
  options.second_stage_size = 80;

  std::cout << "auto-tuning " << benchmark->name() << " on all "
            << platform.devices().size() << " devices of the platform...\n";

  common::Table table({"Device", "Tuned time", "Tuning cost (simulated)",
                       "Best configuration"});
  std::string best_device;
  tuner::Configuration best_config;
  double best_time = 0.0;
  bool found = false;
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 6L));
  for (const auto& device : platform.devices()) {
    benchkit::BenchmarkEvaluator evaluator(*benchmark, device);
    // Stage 2 skips what clstat proves invalid on this device, so oversized
    // work-groups cannot crowd out the valid candidates (stereo on GPUs!).
    options.static_checker = std::make_shared<clsim::analyze::StaticChecker>(
        benchkit::make_static_checker(*benchmark, device));
    const auto result = tuner::AutoTuner(options).tune(
        evaluator, tuner::TuneRun::with_seed(seed));
    if (!result.success) {
      table.add_row({device.name(), "no prediction", "-", "-"});
      continue;
    }
    table.add_row({device.name(), common::fmt_time_ms(result.best_time_ms),
                   common::fmt_time_ms(result.data_gathering_cost_ms),
                   benchmark->space().to_string(result.best_config)});
    if (!found || result.best_time_ms < best_time) {
      found = true;
      best_time = result.best_time_ms;
      best_device = device.name();
      best_config = result.best_config;
    }
  }
  table.print(std::cout);
  if (!found) {
    std::cout << "no device produced a tuned configuration\n";
    return 1;
  }
  std::cout << "\n=> run " << benchmark->name() << " on " << best_device
            << " with " << benchmark->space().to_string(best_config) << " ("
            << common::fmt_time_ms(best_time) << " per launch)\n";
  std::cout << "note: each tuned configuration is device-specific — "
               "shipping the winner's configuration to the runner-up "
               "devices recreates Figure 1's slowdowns.\n";
  return 0;
}
