#pragma once

// Program/Kernel layer of the simulated runtime.
//
// A Program holds kernel *factories*: callables that, given a device and
// build options (the -D macro set a real driver would see), produce a
// CompiledKernel — a functional body plus the static KernelProfile the
// timing model consumes. Building a kernel performs the static validation a
// real compiler does, and charges simulated compile time.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "clsim/device.hpp"
#include "clsim/error.hpp"
#include "clsim/kernel_profile.hpp"
#include "clsim/work_item.hpp"

namespace pt::clsim {

/// Preprocessor-macro analogue: integer -D definitions keyed by name.
class BuildOptions {
 public:
  void define(const std::string& name, int value) { defines_[name] = value; }

  /// Value of a define; throws kBuildProgramFailure if missing (mirrors an
  /// #error for a required macro).
  [[nodiscard]] int require(const std::string& name) const;

 private:
  std::map<std::string, int> defines_;
};

/// Result of compiling one kernel for one (device, options) pair.
struct CompiledKernel {
  std::string name;
  KernelProfile profile;
  /// Functional body; may be empty for timing-only studies, in which case
  /// only enqueue with ExecMode::kTimingOnly is legal.
  KernelBody body;
};

/// Factory: compile a kernel for (device, options) or throw ClException with
/// kBuildProgramFailure for statically invalid configurations.
using KernelFactory =
    std::function<CompiledKernel(const DeviceInfo&, const BuildOptions&)>;

/// A built (device-specialized) kernel ready for launch. Its body binds its
/// data (buffers, images, scalars) through the closure.
class Kernel {
 public:
  Kernel(Device device, CompiledKernel compiled);

  [[nodiscard]] const std::string& name() const noexcept {
    return compiled_->name;
  }
  [[nodiscard]] const KernelProfile& profile() const noexcept {
    return compiled_->profile;
  }
  [[nodiscard]] const KernelBody& body() const noexcept {
    return compiled_->body;
  }

  /// Launch-time validation of an ND-range against the device limits.
  /// Returns the status a real clEnqueueNDRangeKernel would: kSuccess or the
  /// specific invalid-configuration code.
  [[nodiscard]] Status validate_launch(const NDRange& global,
                                       const NDRange& local) const noexcept;

 private:
  Device device_;
  std::shared_ptr<const CompiledKernel> compiled_;
};

/// A program: named kernel factories, each buildable per device.
class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void add_kernel(const std::string& kernel_name, KernelFactory factory);

  /// Build one kernel by name for the device; returns it with its simulated
  /// build time. Throws ClException(kBuildProgramFailure) if the factory
  /// rejects the options (static invalidity).
  [[nodiscard]] std::pair<Kernel, double> build_kernel(
      const Device& device, const std::string& kernel_name,
      const BuildOptions& options) const;

 private:
  std::string name_;
  std::map<std::string, KernelFactory> factories_;
};

}  // namespace pt::clsim
