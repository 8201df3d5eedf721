#pragma once

// Device abstraction: static capability/limit information (what
// clGetDeviceInfo would report) plus a timing oracle that supplies the
// simulated clock. Limits are what make tuning configurations *invalid* on
// some devices but not others — a central mechanism in the paper.

#include <cstddef>
#include <memory>
#include <string>

#include "clsim/types.hpp"

namespace pt::clsim {

struct KernelProfile;

/// Static device description (mirrors the relevant clGetDeviceInfo fields,
/// plus the microarchitectural parameters the timing model needs).
struct DeviceInfo {
  std::string name;
  std::string vendor;
  DeviceType type = DeviceType::kGpu;

  // --- Limits (validity rules) ---
  std::size_t max_work_group_size = 1024;      // total items per group
  std::size_t max_work_item_sizes[3] = {1024, 1024, 64};
  std::size_t local_mem_bytes = 48 * 1024;     // per work-group budget
  std::size_t constant_mem_bytes = 64 * 1024;
  std::size_t global_mem_bytes = 4ull << 30;
  std::size_t max_image2d_width = 16384;
  std::size_t max_image2d_height = 16384;
  bool images_supported = true;

  // --- Microarchitecture (timing model inputs) ---
  std::size_t compute_units = 1;
  std::size_t simd_width = 1;           // warp/wavefront width (1 on CPU)
  std::size_t max_groups_per_cu = 16;   // scheduler limit
  std::size_t max_items_per_cu = 2048;  // resident work-item limit
  std::size_t registers_per_cu = 65536; // register file entries (32-bit)
  double clock_ghz = 1.0;
  double flops_per_cycle_per_cu = 2.0;  // per-PE*PEs: peak mul-add lanes
  double global_bw_gbps = 100.0;        // DRAM bandwidth
  double l2_bw_gbps = 300.0;
  double local_bw_gbps = 1000.0;        // scratchpad aggregate
  double texture_bw_gbps = 200.0;       // image/texture path
  double constant_bw_gbps = 400.0;      // broadcast-optimized path
  std::size_t cache_line_bytes = 128;
  std::size_t l2_bytes = 512 * 1024;
  bool global_cached = true;            // Fermi+: global loads cached

  /// Warps (or wavefronts) resident per CU needed to reach peak DRAM
  /// bandwidth; below this, memory latency is exposed (occupancy effect).
  double latency_hiding_warps = 32.0;

  // --- CPU-specific modeling knobs (ignored for GPUs) ---
  std::size_t vector_width = 1;          // implicit vectorization lanes
  double group_sched_overhead_us = 0.0;  // per-work-group scheduling cost
  double software_image_ops = 0.0;       // extra ops per image access

  // --- Host/driver overheads ---
  double launch_overhead_ms = 0.01;     // per clEnqueueNDRangeKernel
  double base_compile_ms = 100.0;       // fixed program-build cost
  double compile_ms_per_kstmt = 60.0;   // kernel build cost driver
  /// 0 = the driver applies `#pragma unroll` faithfully; larger values make
  /// pragma unrolling increasingly erratic (see archsim::TimingModel).
  double pragma_unroll_unreliability = 0.0;

  // --- Noise magnitudes (lognormal sigma) ---
  /// Deterministic per-configuration "unmodeled effects" dispersion.
  double structural_noise_sigma = 0.08;
  /// Per-measurement jitter.
  double measurement_noise_sigma = 0.01;
};

/// Geometry and resources of one kernel launch, as seen by the oracle.
struct LaunchDescriptor {
  const KernelProfile* profile = nullptr;
  NDRange global;
  NDRange local;
  std::size_t local_mem_bytes = 0;  // total per group, static + dynamic
};

/// Supplies the simulated clock: how long a launch or a build takes on a
/// given device. Implemented by archsim::TimingModel; clsim only needs the
/// interface, which keeps the runtime independent of the cost model.
class TimingOracle {
 public:
  virtual ~TimingOracle() = default;

  /// Simulated kernel execution time in milliseconds.
  [[nodiscard]] virtual double kernel_time_ms(
      const DeviceInfo& device, const LaunchDescriptor& launch) const = 0;

  /// Simulated program build time in milliseconds.
  [[nodiscard]] virtual double compile_time_ms(
      const DeviceInfo& device, const KernelProfile& profile) const = 0;
};

/// A device: info + oracle. Shared (value-semantic handle) across contexts.
class Device {
 public:
  Device(DeviceInfo info, std::shared_ptr<const TimingOracle> oracle);

  [[nodiscard]] const DeviceInfo& info() const noexcept { return *info_; }
  [[nodiscard]] const TimingOracle& oracle() const noexcept {
    return *oracle_;
  }
  [[nodiscard]] const std::string& name() const noexcept {
    return info_->name;
  }
  [[nodiscard]] DeviceType type() const noexcept { return info_->type; }

 private:
  std::shared_ptr<const DeviceInfo> info_;
  std::shared_ptr<const TimingOracle> oracle_;
};

}  // namespace pt::clsim
