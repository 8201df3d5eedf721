// Working with the performance model directly: train it once, persist it,
// reload it, and use it for what-if analysis — per-parameter sensitivity
// around the tuned optimum, and the ensemble's predictive spread as a
// confidence signal. (The paper's model is a black box; this example shows
// what you can still extract from it.)
//
//   ./model_exploration [--device="AMD Radeon HD 7970"] [--training=1500]

#include <fstream>
#include <iostream>
#include <sstream>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "tuner/persist.hpp"
#include "tuner/autotuner.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device =
      platform.device_by_name(args.get("device", archsim::kNvidiaK40));
  const auto benchmark =
      benchkit::make_benchmark(args.get("benchmark", "convolution"));
  benchkit::BenchmarkEvaluator evaluator(*benchmark, device);

  // Tune (which trains a model as a side effect).
  tuner::AutoTunerOptions options;
  options.training_samples =
      static_cast<std::size_t>(args.get("training", 1500L));
  options.second_stage_size = 100;
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 4L));
  const auto result = tuner::AutoTuner(options).tune(
      evaluator, tuner::TuneRun::with_seed(seed));
  if (!result.success || !result.model) {
    std::cout << "tuning failed\n";
    return 1;
  }
  std::cout << "tuned " << benchmark->name() << " on " << device.name()
            << ": " << benchmark->space().to_string(result.best_config)
            << " = " << common::fmt_time_ms(result.best_time_ms) << "\n";

  // Persist the full trained model and reload it (round trip through the
  // text format); predictions survive exactly, so the expensive
  // data-gathering phase is paid once per device.
  std::stringstream persisted;
  tuner::save_model(*result.model, persisted);
  const tuner::AnnPerformanceModel reloaded = tuner::load_model(persisted);
  std::cout << "model persisted (" << persisted.str().size()
            << " bytes) and reloaded: "
            << reloaded.ensemble().member_count() << " member networks; "
            << "prediction drift after reload: "
            << std::abs(reloaded.predict_ms(result.best_config) -
                        result.model->predict_ms(result.best_config))
            << " ms\n";

  // What-if analysis: vary each parameter away from the tuned optimum and
  // ask the model for the predicted cost, without running anything.
  std::cout << "\npredicted sensitivity around the tuned optimum:\n";
  common::Table table({"Parameter", "Value", "Predicted time", "vs best"});
  const double best_pred = result.model->predict_ms(result.best_config);
  for (std::size_t d = 0; d < benchmark->space().dimension_count(); ++d) {
    const auto& param = benchmark->space().parameter(d);
    for (const int value : param.values) {
      if (value == result.best_config.values[d]) continue;
      tuner::Configuration variant = result.best_config;
      variant.values[d] = value;
      const double predicted = result.model->predict_ms(variant);
      if (predicted / best_pred < 1.15) continue;  // only notable cliffs
      table.add_row({param.name, std::to_string(value),
                     common::fmt_time_ms(predicted),
                     common::fmt(predicted / best_pred, 2) + "x"});
    }
  }
  if (table.rows() == 0) {
    std::cout << "  (the model predicts the optimum is flat in every "
                 "single-parameter direction)\n";
  } else {
    table.print(std::cout);
  }

  // Uncertainty: the spread of the ensemble members' predictions.
  const auto features = result.model->encode_features(result.best_config);
  std::cout << "\nensemble spread at the optimum (log-time stddev across "
            << result.model->ensemble().member_count()
            << " members): "
            << common::fmt(result.model->ensemble().predictive_spread(features),
                           4)
            << "\n";
  return 0;
}
