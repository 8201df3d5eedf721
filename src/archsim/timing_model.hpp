#pragma once

// Architectural timing model — the simulated clock behind every device.
//
// Implements clsim::TimingOracle. Given a kernel's static profile and the
// launch geometry, it models, per device class:
//
//  GPU: warp/wavefront execution efficiency, divergence, ILP from loop
//  unrolling, occupancy (groups / items / registers / local memory limits),
//  memory-latency hiding as a function of resident warps, per-space memory
//  paths (global with coalescing and caching, texture, constant broadcast,
//  local with bank conflicts), work-group barriers, wave (tail)
//  quantization, and kernel-launch overhead.
//
//  CPU: work-group scheduling across cores, implicit vectorization along the
//  local x dimension, unified memory for all logical spaces, software image
//  sampling cost (the mechanism behind the paper's Intel clustering effect,
//  Figs 8/§6), loop-unrolling ILP, and per-group scheduling overhead.
//
// Driver quirks: devices can apply `#pragma unroll` unreliably
// (DeviceInfo::pragma_unroll_unreliability). The *effective* unroll factor
// then depends on a hash of the configuration — a deterministic but
// irregular landscape feature. The paper attributes AMD's poorer model
// accuracy on the pragma-unrolled benchmarks to exactly this (section 7).
//
// Noise: two lognormal components.
//  - structural: deterministic per (device, configuration) via hashing —
//    unmodeled architectural effects. The same configuration always runs in
//    the same time, but the ANN cannot fully learn this component, which
//    sets a device-specific floor on model accuracy (Figs 4-6).
//  - measurement: fresh per call — timer jitter. Optional.

#include <atomic>
#include <cstdint>

#include "clsim/device.hpp"
#include "clsim/kernel_profile.hpp"

namespace pt::archsim {

class TimingModel final : public clsim::TimingOracle {
 public:
  struct Options {
    bool structural_noise = true;
    bool measurement_noise = true;
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  };

  TimingModel() : TimingModel(Options{}) {}
  explicit TimingModel(Options options) : options_(options) {}

  [[nodiscard]] double kernel_time_ms(
      const clsim::DeviceInfo& device,
      const clsim::LaunchDescriptor& launch) const override;

  [[nodiscard]] double compile_time_ms(
      const clsim::DeviceInfo& device,
      const clsim::KernelProfile& profile) const override;

  /// Noise-free model output (used by tests and the model-ablation bench).
  [[nodiscard]] double deterministic_kernel_time_ms(
      const clsim::DeviceInfo& device,
      const clsim::LaunchDescriptor& launch) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  [[nodiscard]] double gpu_time_ms(const clsim::DeviceInfo& dev,
                                   const clsim::LaunchDescriptor& launch) const;
  [[nodiscard]] double cpu_time_ms(const clsim::DeviceInfo& dev,
                                   const clsim::LaunchDescriptor& launch) const;

  /// Effective unroll factor of a loop after driver-pragma (un)reliability.
  [[nodiscard]] std::size_t effective_unroll(
      const clsim::DeviceInfo& dev, const clsim::KernelProfile& profile,
      const clsim::LoopInfo& loop, std::size_t loop_index) const;

  Options options_;
  mutable std::atomic<std::uint64_t> call_counter_{0};
};

}  // namespace pt::archsim
