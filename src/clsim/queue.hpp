#pragma once

// In-order command queue over a simulated timeline: the build, launch and
// time an auto-tuner needs (paper sections 5 and 6), kept as totals.
//
// enqueue_nd_range validates the launch exactly like clEnqueueNDRangeKernel
// (invalid tuning configurations throw ClException here), asks the device's
// timing oracle for the duration, and — when the queue is functional — also
// executes the kernel body on the host so results can be checked.

#include "clsim/device.hpp"
#include "clsim/executor.hpp"
#include "clsim/kernel.hpp"

namespace pt::clsim {

/// Whether enqueued kernels actually run on the host (functional check) or
/// only advance the simulated clock (fast path for tuning sweeps).
enum class ExecMode { kTimingOnly, kFunctional };

class CommandQueue {
 public:
  struct Options {
    ExecMode mode = ExecMode::kFunctional;
    /// Thread pool for functional execution (nullptr = sequential).
    common::ThreadPool* pool = nullptr;
    /// clcheck sanitizer mode. kOn instruments functional launches (bounds,
    /// races, barrier/allocation lints) and accumulates findings in
    /// check_report(); kOff (default) is bit-identical to pre-clcheck runs.
    CheckMode check = CheckMode::kOff;
    /// Executor tuning knobs for functional launches (fast-path toggle).
    NDRangeExecutor::Options executor = {};
  };

  explicit CommandQueue(Device device) : CommandQueue(std::move(device), Options{}) {}
  CommandQueue(Device device, Options options);

  /// Launch a kernel and return its simulated time in ms. Every valid
  /// launch, functional or not, asks the oracle exactly once. Throws
  /// ClException for invalid configurations (the status identifies why;
  /// the oracle is not asked) and propagates kernel-body exceptions.
  double enqueue_nd_range(const Kernel& kernel, const NDRange& global,
                          const NDRange& local);

  /// Add simulated build time to the build total (data-gathering cost
  /// includes compilation, as in the paper's section 6).
  void record_build(double build_time_ms);

  /// Sum of kernel-execution durations so far.
  [[nodiscard]] double total_kernel_ms() const noexcept {
    return total_kernel_ms_;
  }
  /// Sum of build durations recorded so far.
  [[nodiscard]] double total_build_ms() const noexcept {
    return total_build_ms_;
  }

  /// Findings accumulated by checked launches (empty unless Options::check
  /// is CheckMode::kOn).
  [[nodiscard]] const CheckReport& check_report() const noexcept {
    return check_report_;
  }

 private:
  Device device_;
  Options options_;
  double total_kernel_ms_ = 0.0;
  double total_build_ms_ = 0.0;
  CheckReport check_report_;
};

}  // namespace pt::clsim
