// Quickstart: auto-tune a benchmark for a device in ~30 lines of API.
//
//   ./quickstart [--benchmark=convolution] [--device="Nvidia K40"]
//                [--training=1000] [--m=100] [--seed=1]
//
// Steps: pick a device from the simulated platform, wrap a parameterized
// benchmark in an evaluator, run the two-stage ML auto-tuner, and print the
// winning configuration.

#include <iostream>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "tuner/autotuner.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);

  // 1. A platform of simulated devices (the paper's five-device roster).
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device =
      platform.device_by_name(args.get("device", archsim::kNvidiaK40));

  // 2. A parameterized benchmark and its evaluator on that device.
  const auto benchmark =
      benchkit::make_benchmark(args.get("benchmark", "convolution"));
  benchkit::BenchmarkEvaluator evaluator(*benchmark, device);
  std::cout << "tuning " << benchmark->name() << " on " << device.name()
            << " (" << benchmark->space().size() << " configurations)\n";

  // 3. The paper's two-stage auto-tuner: N random samples train an ANN
  //    ensemble; the M most promising predictions are measured.
  tuner::AutoTunerOptions options;
  options.training_samples =
      static_cast<std::size_t>(args.get("training", 1000L));
  options.second_stage_size = static_cast<std::size_t>(args.get("m", 100L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));

  const tuner::AutoTuner autotuner(options);
  const tuner::AutoTuneResult result =
      autotuner.tune(evaluator, tuner::TuneRun::with_seed(seed));

  // 4. Report.
  if (!result.success) {
    std::cout << "no prediction: every second-stage configuration was "
                 "invalid on this device\n";
    return 1;
  }
  std::cout << "\nbest configuration: "
            << benchmark->space().to_string(result.best_config) << "\n";
  common::Table table({"Parameter", "Value"});
  for (std::size_t d = 0; d < benchmark->space().dimension_count(); ++d) {
    table.add_row({benchmark->space().parameter(d).name,
                   std::to_string(result.best_config.values[d])});
  }
  table.print(std::cout);
  std::cout << "execution time: " << common::fmt_time_ms(result.best_time_ms)
            << "\nmeasured " << result.stage1_measured << " + "
            << result.stage2_measured << " of "
            << benchmark->space().size() << " configurations ("
            << common::fmt_pct(
                   static_cast<double>(result.stage1_measured +
                                       result.stage2_measured) /
                   static_cast<double>(benchmark->space().size()))
            << ")\nsimulated data-gathering cost: "
            << common::fmt_time_ms(result.data_gathering_cost_ms) << "\n";
  return 0;
}
