#include "archsim/devices.hpp"

namespace pt::archsim {

using clsim::DeviceInfo;
using clsim::DeviceType;

DeviceInfo intel_i7_3770_info() {
  DeviceInfo d;
  d.name = kIntelI7;
  d.vendor = "Intel";
  d.type = DeviceType::kCpu;

  d.max_work_group_size = 8192;
  d.max_work_item_sizes[0] = 8192;
  d.max_work_item_sizes[1] = 8192;
  d.max_work_item_sizes[2] = 8192;
  d.local_mem_bytes = 32 * 1024;
  d.constant_mem_bytes = 128 * 1024;
  d.global_mem_bytes = 16ull << 30;

  d.compute_units = 8;        // 4 cores, 2 threads each
  d.simd_width = 1;           // no lockstep warps
  d.vector_width = 8;         // AVX, 8 floats
  d.max_groups_per_cu = 1;
  d.max_items_per_cu = 8192;
  d.registers_per_cu = 1u << 30;  // effectively unbounded (spill to stack)
  d.clock_ghz = 3.4;
  d.flops_per_cycle_per_cu = 8.0;  // AVX mul+add mix per logical core
  d.global_bw_gbps = 25.6;         // dual-channel DDR3-1600
  d.l2_bw_gbps = 120.0;
  d.local_bw_gbps = 120.0;         // "local" is just cached main memory
  d.texture_bw_gbps = 25.6;
  d.constant_bw_gbps = 120.0;
  d.cache_line_bytes = 64;
  d.l2_bytes = 8 * 1024 * 1024;  // shared L3
  d.global_cached = true;
  d.latency_hiding_warps = 1.0;

  d.group_sched_overhead_us = 1.5;
  // Software image sampling: coordinate conversion, addressing, border
  // handling and channel unpacking per access. This is the mechanism behind
  // the paper's Intel clustering (Fig 8): image reads without local-memory
  // staging are an order of magnitude more expensive than plain loads.
  d.software_image_ops = 120.0;

  d.launch_overhead_ms = 0.02;
  d.base_compile_ms = 170.0;
  d.compile_ms_per_kstmt = 40.0;
  d.pragma_unroll_unreliability = 0.05;

  d.structural_noise_sigma = 0.05;
  d.measurement_noise_sigma = 0.008;
  return d;
}

DeviceInfo nvidia_k40_info() {
  DeviceInfo d;
  d.name = kNvidiaK40;
  d.vendor = "Nvidia";
  d.type = DeviceType::kGpu;

  d.max_work_group_size = 1024;
  d.max_work_item_sizes[0] = 1024;
  d.max_work_item_sizes[1] = 1024;
  d.max_work_item_sizes[2] = 64;
  d.local_mem_bytes = 48 * 1024;
  d.constant_mem_bytes = 64 * 1024;
  d.global_mem_bytes = 12ull << 30;

  d.compute_units = 15;  // SMX count, GK110B
  d.simd_width = 32;
  d.max_groups_per_cu = 16;
  d.max_items_per_cu = 2048;
  d.registers_per_cu = 65536;
  d.clock_ghz = 0.875;               // boost clock
  d.flops_per_cycle_per_cu = 384.0;  // 192 FMA cores
  d.global_bw_gbps = 288.0;
  d.l2_bw_gbps = 500.0;
  d.local_bw_gbps = 1500.0;
  d.texture_bw_gbps = 400.0;
  d.constant_bw_gbps = 600.0;
  d.cache_line_bytes = 128;
  d.l2_bytes = 1536 * 1024;
  d.global_cached = true;  // read-only data cache path
  d.latency_hiding_warps = 32.0;

  d.launch_overhead_ms = 0.008;
  d.base_compile_ms = 350.0;
  d.compile_ms_per_kstmt = 60.0;
  d.pragma_unroll_unreliability = 0.15;

  d.structural_noise_sigma = 0.105;
  d.measurement_noise_sigma = 0.02;
  return d;
}

DeviceInfo amd_hd7970_info() {
  DeviceInfo d;
  d.name = kAmdHd7970;
  d.vendor = "AMD";
  d.type = DeviceType::kGpu;

  d.max_work_group_size = 256;
  d.max_work_item_sizes[0] = 256;
  d.max_work_item_sizes[1] = 256;
  d.max_work_item_sizes[2] = 256;
  d.local_mem_bytes = 32 * 1024;
  d.constant_mem_bytes = 64 * 1024;
  d.global_mem_bytes = 3ull << 30;

  d.compute_units = 32;  // GCN Tahiti
  d.simd_width = 64;     // wavefront
  d.max_groups_per_cu = 40;
  d.max_items_per_cu = 2560;
  d.registers_per_cu = 65536;  // 256 KB VGPR file, 32-bit entries
  d.clock_ghz = 0.925;
  d.flops_per_cycle_per_cu = 128.0;  // 64 FMA lanes
  d.global_bw_gbps = 264.0;
  d.l2_bw_gbps = 700.0;
  d.local_bw_gbps = 2000.0;  // LDS
  d.texture_bw_gbps = 350.0;
  d.constant_bw_gbps = 500.0;
  d.cache_line_bytes = 64;
  d.l2_bytes = 768 * 1024;
  d.global_cached = true;
  d.latency_hiding_warps = 24.0;

  d.launch_overhead_ms = 0.012;
  d.base_compile_ms = 520.0;
  d.compile_ms_per_kstmt = 85.0;
  // The paper (section 7) attributes AMD's poorer model accuracy on the
  // driver-pragma benchmarks to unreliable pragma unrolling.
  d.pragma_unroll_unreliability = 0.45;

  d.structural_noise_sigma = 0.10;
  d.measurement_noise_sigma = 0.025;
  return d;
}

DeviceInfo nvidia_c2070_info() {
  DeviceInfo d;
  d.name = kNvidiaC2070;
  d.vendor = "Nvidia";
  d.type = DeviceType::kGpu;

  d.max_work_group_size = 1024;
  d.max_work_item_sizes[0] = 1024;
  d.max_work_item_sizes[1] = 1024;
  d.max_work_item_sizes[2] = 64;
  d.local_mem_bytes = 48 * 1024;
  d.constant_mem_bytes = 64 * 1024;
  d.global_mem_bytes = 6ull << 30;

  d.compute_units = 14;  // Fermi GF100 SMs
  d.simd_width = 32;
  d.max_groups_per_cu = 8;
  d.max_items_per_cu = 1536;
  d.registers_per_cu = 32768;
  d.clock_ghz = 1.15;
  d.flops_per_cycle_per_cu = 64.0;  // 32 FMA cores
  d.global_bw_gbps = 144.0;
  d.l2_bw_gbps = 350.0;
  d.local_bw_gbps = 1000.0;
  d.texture_bw_gbps = 250.0;
  d.constant_bw_gbps = 400.0;
  d.cache_line_bytes = 128;
  d.l2_bytes = 768 * 1024;
  d.global_cached = true;  // Fermi L1/L2 for global
  d.latency_hiding_warps = 24.0;

  d.launch_overhead_ms = 0.01;
  d.base_compile_ms = 330.0;
  d.compile_ms_per_kstmt = 60.0;
  d.pragma_unroll_unreliability = 0.15;

  d.structural_noise_sigma = 0.105;
  d.measurement_noise_sigma = 0.02;
  return d;
}

DeviceInfo nvidia_gtx980_info() {
  DeviceInfo d;
  d.name = kNvidiaGtx980;
  d.vendor = "Nvidia";
  d.type = DeviceType::kGpu;

  d.max_work_group_size = 1024;
  d.max_work_item_sizes[0] = 1024;
  d.max_work_item_sizes[1] = 1024;
  d.max_work_item_sizes[2] = 64;
  d.local_mem_bytes = 48 * 1024;
  d.constant_mem_bytes = 64 * 1024;
  d.global_mem_bytes = 4ull << 30;

  d.compute_units = 16;  // Maxwell GM204 SMMs
  d.simd_width = 32;
  d.max_groups_per_cu = 32;
  d.max_items_per_cu = 2048;
  d.registers_per_cu = 65536;
  d.clock_ghz = 1.216;
  d.flops_per_cycle_per_cu = 256.0;  // 128 FMA cores
  d.global_bw_gbps = 224.0;
  d.l2_bw_gbps = 700.0;
  d.local_bw_gbps = 2000.0;
  d.texture_bw_gbps = 450.0;
  d.constant_bw_gbps = 600.0;
  d.cache_line_bytes = 128;
  d.l2_bytes = 2048 * 1024;
  d.global_cached = true;
  d.latency_hiding_warps = 28.0;

  d.launch_overhead_ms = 0.007;
  d.base_compile_ms = 340.0;
  d.compile_ms_per_kstmt = 60.0;
  d.pragma_unroll_unreliability = 0.12;

  // Fig 7: the newest architecture models slightly worse — more unmodeled
  // micro-architectural behaviour for the simple feature set.
  d.structural_noise_sigma = 0.13;
  d.measurement_noise_sigma = 0.02;
  return d;
}

clsim::Device make_device(clsim::DeviceInfo info,
                          std::shared_ptr<const TimingModel> model) {
  return clsim::Device(std::move(info), std::move(model));
}

clsim::Platform default_platform(TimingModel::Options options) {
  auto model = std::make_shared<const TimingModel>(options);
  std::vector<clsim::Device> devices;
  devices.push_back(make_device(intel_i7_3770_info(), model));
  devices.push_back(make_device(nvidia_k40_info(), model));
  devices.push_back(make_device(amd_hd7970_info(), model));
  devices.push_back(make_device(nvidia_c2070_info(), model));
  devices.push_back(make_device(nvidia_gtx980_info(), model));
  return clsim::Platform("portatune-sim", std::move(devices));
}

}  // namespace pt::archsim
