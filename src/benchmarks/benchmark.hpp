#pragma once

// TunableBenchmark: a parameterized OpenCL workload — a tuning space (paper
// Table 2), a clsim Program whose kernel factories specialize per
// configuration, and launch geometry derived from the configuration.
// BenchmarkEvaluator adapts a (benchmark, device) pair to the tuner's
// Evaluator interface, turning driver rejections into invalid measurements.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "clsim/clsim.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/param.hpp"

namespace pt::benchkit {

/// A kernel built and configured for one (device, configuration) pair.
struct LaunchPlan {
  clsim::Kernel kernel;
  clsim::NDRange global;
  clsim::NDRange local;
  double build_time_ms = 0.0;
};

/// Result of a clcheck-instrumented functional run: the usual max-error
/// verdict plus every sanitizer finding the launch produced.
struct CheckedVerification {
  double max_abs_error = 0.0;
  clsim::CheckReport report;

  [[nodiscard]] bool clean() const noexcept { return report.clean(); }
};

class TunableBenchmark {
 public:
  virtual ~TunableBenchmark() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;
  [[nodiscard]] virtual const tuner::ParamSpace& space() const noexcept = 0;

  /// Map a configuration to the -D define set the kernel factory consumes.
  [[nodiscard]] virtual clsim::BuildOptions build_options(
      const tuner::Configuration& config) const = 0;

  /// Build the kernel and compute the ND-range for a configuration. Throws
  /// ClException (kBuildProgramFailure) for statically invalid
  /// configurations; launch-time invalidity surfaces at enqueue.
  [[nodiscard]] virtual LaunchPlan prepare(
      const clsim::Device& device,
      const tuner::Configuration& config) const = 0;

  /// Run the kernel functionally on the device and compare its output with
  /// the scalar reference; returns the max absolute error. Use benchmarks
  /// constructed with small geometries — this executes every work-item.
  [[nodiscard]] virtual double verify(const clsim::Device& device,
                                      const tuner::Configuration& config) const = 0;

  /// verify() under the clcheck sanitizer: same functional run and error
  /// metric, with every kernel memory access instrumented. Slower (checked
  /// launches are sequential) but catches out-of-bounds accesses, races and
  /// barrier/allocation divergence that a correct-looking output can mask.
  [[nodiscard]] virtual CheckedVerification verify_checked(
      const clsim::Device& device, const tuner::Configuration& config) const = 0;

  /// Static (clstat) constraint description of this benchmark's kernel over
  /// its tuning space: resource formulas and launch preconditions as
  /// AffineExprs the analyzer can evaluate without any launch. The default
  /// is an *incomplete* empty set — a StaticChecker over it proves nothing
  /// and answers kUnknown everywhere, which is always sound. Benchmarks that
  /// override this and set `complete = true` promise the set captures every
  /// failure mode (driver rejection or clcheck finding).
  [[nodiscard]] virtual clsim::analyze::KernelConstraints constraints() const;
};

/// Mirror a tuner::ParamSpace as an analyzer ParamDomain (same dimension
/// order and value lists, so a decoded Configuration indexes both).
[[nodiscard]] clsim::analyze::ParamDomain make_param_domain(
    const tuner::ParamSpace& space);

/// Convenience: bind a benchmark's constraint set to one device.
[[nodiscard]] clsim::analyze::StaticChecker make_static_checker(
    const TunableBenchmark& benchmark, const clsim::Device& device);

/// Point verdict for a decoded configuration (values in space order).
[[nodiscard]] clsim::analyze::ConfigVerdict check_config(
    const clsim::analyze::StaticChecker& checker,
    const tuner::Configuration& config);

/// Fill a width x height input image row by row: fill_row(y) for every y in
/// [0, height). Rows go to the global pool in tasks of at least 2^16 pixels;
/// an image no larger than one task is filled on the calling thread, so a
/// small instance never waits behind other work queued on the pool.
/// fill_row(y) must write only what belongs to row y, which makes the result
/// independent of the pool size.
void fill_rows(std::size_t width, std::size_t height,
               const std::function<void(std::size_t)>& fill_row);

/// Adapts (benchmark, device) to tuner::Evaluator. Measurements run on a
/// timing-only queue; invalid configurations are caught and reported with
/// their cost (failed builds and launches still take time — section 6).
class BenchmarkEvaluator final : public tuner::Evaluator {
 public:
  BenchmarkEvaluator(const TunableBenchmark& benchmark, clsim::Device device);

  [[nodiscard]] const tuner::ParamSpace& space() const override {
    return benchmark_->space();
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] tuner::Measurement measure(
      const tuner::Configuration& config) override;

  [[nodiscard]] const clsim::Device& device() const noexcept {
    return device_;
  }
  /// The queue totalling the simulated data-gathering build and kernel time.
  [[nodiscard]] const clsim::CommandQueue& queue() const noexcept {
    return queue_;
  }

 private:
  const TunableBenchmark* benchmark_;
  clsim::Device device_;
  clsim::CommandQueue queue_;
};

}  // namespace pt::benchkit
