#include "serve/catalog.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "benchmarks/registry.hpp"

namespace pt::serve {

namespace {

/// Evaluator that owns the benchmark it measures, so factory products are
/// self-contained (BenchmarkEvaluator itself only borrows its benchmark).
class OwningBenchmarkEvaluator final : public tuner::Evaluator {
 public:
  OwningBenchmarkEvaluator(
      std::unique_ptr<benchkit::TunableBenchmark> benchmark,
      clsim::Device device)
      : benchmark_(std::move(benchmark)),
        eval_(*benchmark_, std::move(device)) {}

  [[nodiscard]] const tuner::ParamSpace& space() const override {
    return eval_.space();
  }
  [[nodiscard]] std::string name() const override { return eval_.name(); }
  [[nodiscard]] tuner::Measurement measure(
      const tuner::Configuration& config) override {
    return eval_.measure(config);
  }
  [[nodiscard]] tuner::Evaluator* inner() noexcept override { return &eval_; }

 private:
  std::unique_ptr<benchkit::TunableBenchmark> benchmark_;
  benchkit::BenchmarkEvaluator eval_;
};

/// The archsim TimingModel keys its measurement noise off a mutable call
/// counter, and archsim::default_platform gives all five of its devices one
/// model, so every launch on any of them advances it: timing-only and
/// functional launches alike, from this tune or any other evaluator on the
/// platform. A shared oracle would therefore give each tune a different
/// noise stream, breaking the serve determinism contract (served result ==
/// direct AutoTuner run at the same seed). Give each evaluator its own
/// oracle, rebuilt from the same options, so every tune replays from call
/// zero. Custom (non-archsim) oracles are shared as-is; their replay
/// semantics are the caller's business.
clsim::Device replay_device(const clsim::Device& device) {
  const auto* model =
      dynamic_cast<const archsim::TimingModel*>(&device.oracle());
  if (model == nullptr) return device;
  return archsim::make_device(
      device.info(),
      std::make_shared<const archsim::TimingModel>(model->options()));
}

}  // namespace

BenchmarkCatalog::BenchmarkCatalog()
    : BenchmarkCatalog(archsim::default_platform()) {}

BenchmarkCatalog::BenchmarkCatalog(clsim::Platform platform)
    : platform_(std::move(platform)) {}

std::string BenchmarkCatalog::version() const {
  std::string v = "catalog";
  for (const clsim::Device& device : platform_.devices()) {
    v += '|';
    v += device.info().name;
  }
  return v;
}

std::unique_ptr<tuner::Evaluator> BenchmarkCatalog::make_evaluator(
    const TuneKey& key) const {
  const auto names = benchkit::benchmark_names();
  if (std::find(names.begin(), names.end(), key.kernel) == names.end())
    return nullptr;
  const auto& devices = platform_.devices();
  const auto device = std::find_if(
      devices.begin(), devices.end(),
      [&](const clsim::Device& d) { return d.name() == key.device; });
  if (device == devices.end()) return nullptr;
  std::unique_ptr<benchkit::TunableBenchmark> benchmark;
  if (key.input == "paper")
    benchmark = benchkit::make_benchmark(key.kernel);
  else if (key.input == "small")
    benchmark = benchkit::make_benchmark_small(key.kernel);
  else
    return nullptr;
  return std::make_unique<OwningBenchmarkEvaluator>(std::move(benchmark),
                                                    replay_device(*device));
}

EvaluatorFactory BenchmarkCatalog::factory() const {
  return [this](const TuneKey& key) { return make_evaluator(key); };
}

}  // namespace pt::serve
