#include "benchmarks/benchmark.hpp"

namespace pt::benchkit {

clsim::analyze::KernelConstraints TunableBenchmark::constraints() const {
  clsim::analyze::KernelConstraints kc;
  kc.kernel_name = name();
  kc.domain = make_param_domain(space());
  kc.complete = false;  // proves nothing; always sound
  return kc;
}

clsim::analyze::ParamDomain make_param_domain(const tuner::ParamSpace& space) {
  std::vector<clsim::analyze::Dimension> dims;
  dims.reserve(space.dimension_count());
  for (std::size_t d = 0; d < space.dimension_count(); ++d) {
    const tuner::TuningParameter& p = space.parameter(d);
    dims.push_back(clsim::analyze::Dimension{p.name, p.values});
  }
  return clsim::analyze::ParamDomain{std::move(dims)};
}

clsim::analyze::StaticChecker make_static_checker(
    const TunableBenchmark& benchmark, const clsim::Device& device) {
  return clsim::analyze::StaticChecker{benchmark.constraints(), device.info()};
}

clsim::analyze::ConfigVerdict check_config(
    const clsim::analyze::StaticChecker& checker,
    const tuner::Configuration& config) {
  return checker.check(std::span<const int>(config.values));
}

BenchmarkEvaluator::BenchmarkEvaluator(const TunableBenchmark& benchmark,
                                       clsim::Device device)
    : benchmark_(&benchmark),
      device_(device),
      queue_(device, {.mode = clsim::ExecMode::kTimingOnly}) {}

std::string BenchmarkEvaluator::name() const {
  return benchmark_->name() + "@" + device_.name();
}

tuner::Measurement BenchmarkEvaluator::measure(
    const tuner::Configuration& config) {
  tuner::Measurement result;
  try {
    LaunchPlan plan = benchmark_->prepare(device_, config);
    queue_.record_build(plan.build_time_ms);
    result.cost_ms += plan.build_time_ms;
    result.time_ms =
        queue_.enqueue_nd_range(plan.kernel, plan.global, plan.local);
    result.valid = true;
    result.cost_ms += result.time_ms;
    result.status = clsim::Status::kSuccess;
  } catch (const clsim::ClException& e) {
    if (!e.is_invalid_configuration()) throw;  // programming error
    result.valid = false;
    result.status = e.status();
    // A rejected configuration still wastes time: the build (or the build
    // attempt) plus the failed launch round-trip.
    result.cost_ms += device_.info().base_compile_ms * 0.5 +
                      2.0 * device_.info().launch_overhead_ms;
  }
  return result;
}

}  // namespace pt::benchkit
