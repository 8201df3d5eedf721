#include "archsim/timing_model.hpp"

#include <algorithm>
#include <cmath>

#include "clsim/error.hpp"

namespace pt::archsim {

// Compiled with -ffp-contract=off (src/archsim/CMakeLists.txt): each fused
// multiply-add below is a written std::fma, every other product rounds
// before its add. The fusings are the ones GCC contracted in the AVX2 build
// (-mfma), so simulated times keep those bits, and a build without FMA
// hardware (PT_SIMD=scalar) now gets the same bits instead of rounding them
// twice.

namespace {

using clsim::AccessPattern;
using clsim::DeviceInfo;
using clsim::KernelProfile;
using clsim::LaunchDescriptor;
using clsim::MemorySpace;
using clsim::MemoryStream;

constexpr double kGb = 1e9;

/// Hash-mix for the deterministic noise streams.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_string(const std::string& s) noexcept {
  return clsim::fnv1a(s.data(), s.size());
}

double hash_uniform(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Standard normal from two hash-derived uniforms (Box-Muller).
double hash_normal(std::uint64_t h) noexcept {
  const double u1 = std::max(1e-12, hash_uniform(h));
  const double u2 = hash_uniform(mix(h, 0xabcdef1234567890ULL));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// Occupancy: resident work-groups per compute unit.
std::size_t active_groups_per_cu(const DeviceInfo& dev,
                                 const LaunchDescriptor& launch,
                                 std::size_t group_items) {
  std::size_t limit = dev.max_groups_per_cu;
  if (group_items > 0)
    limit = std::min(limit, std::max<std::size_t>(
                                1, dev.max_items_per_cu / group_items));
  const KernelProfile& prof = *launch.profile;
  if (launch.local_mem_bytes > 0)
    limit = std::min(limit, std::max<std::size_t>(
                                1, dev.local_mem_bytes / launch.local_mem_bytes));
  const std::size_t regs_per_group = prof.registers_per_item * group_items;
  if (regs_per_group > 0)
    limit = std::min(limit, std::max<std::size_t>(
                                1, dev.registers_per_cu / regs_per_group));
  return std::max<std::size_t>(1, limit);
}

/// ILP speedup credited to an effective unroll factor.
double ilp_factor(std::size_t unroll) noexcept {
  const double u = static_cast<double>(std::min<std::size_t>(unroll, 16));
  return std::fma(0.09, std::log2(std::max(1.0, u)), 1.0);
}

/// Loop-control ops per item across the loop nest, given effective unrolls.
double loop_overhead_ops(const KernelProfile& prof,
                         const std::vector<std::size_t>& eff_unrolls) {
  double ops = 0.0;
  for (std::size_t i = 0; i < prof.loops.size(); ++i) {
    const auto& loop = prof.loops[i];
    const double eff = static_cast<double>(std::max<std::size_t>(
        1, i < eff_unrolls.size() ? eff_unrolls[i] : loop.unroll_factor));
    // cmp + inc + branch per trip. Without unrolling the division by 1
    // folds away and the product fuses into the add.
    ops = eff == 1.0 ? std::fma(3.0, loop.trip_count, ops)
                     : ops + 3.0 * loop.trip_count / eff;
  }
  return ops;
}

/// Mean ILP over the loop nest (weighted by trip count).
double nest_ilp(const KernelProfile& prof,
                const std::vector<std::size_t>& eff_unrolls) {
  if (prof.loops.empty()) return 1.0;
  double weight_sum = 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < prof.loops.size(); ++i) {
    const double w = std::max(1.0, prof.loops[i].trip_count);
    const std::size_t eff =
        i < eff_unrolls.size() ? eff_unrolls[i] : prof.loops[i].unroll_factor;
    acc = std::fma(w, ilp_factor(eff), acc);
    weight_sum += w;
  }
  return acc / weight_sum;
}

}  // namespace

std::size_t TimingModel::effective_unroll(const DeviceInfo& dev,
                                          const KernelProfile& profile,
                                          const clsim::LoopInfo& loop,
                                          std::size_t loop_index) const {
  if (loop.unroll_factor <= 1) return 1;
  if (!loop.via_driver_pragma || dev.pragma_unroll_unreliability <= 0.0)
    return loop.unroll_factor;
  // The driver applies the pragma erratically: whether (and how far) the
  // loop actually unrolls depends on irrelevant details of the fully
  // specialized kernel — modeled as a hash of the configuration. This is
  // deterministic per configuration, but jagged across the space.
  const std::uint64_t h =
      mix(mix(hash_string(dev.name), profile.config_fingerprint),
          0x10c0de + loop_index);
  const double u = hash_uniform(h);
  if (u < dev.pragma_unroll_unreliability * 0.6) return 1;  // ignored
  if (u < dev.pragma_unroll_unreliability)
    return std::max<std::size_t>(1, loop.unroll_factor / 2);  // partial
  return loop.unroll_factor;
}

double TimingModel::gpu_time_ms(const DeviceInfo& dev,
                                const LaunchDescriptor& launch) const {
  const KernelProfile& prof = *launch.profile;
  const double items = static_cast<double>(launch.global.total());
  const std::size_t group_items = launch.local.total();
  const double groups = items / static_cast<double>(group_items);

  const double warps_per_group = std::ceil(
      static_cast<double>(group_items) / static_cast<double>(dev.simd_width));
  const double warp_exec_eff =
      static_cast<double>(group_items) /
      (warps_per_group * static_cast<double>(dev.simd_width));

  const std::size_t active_groups = active_groups_per_cu(dev, launch, group_items);
  const double active_warps =
      static_cast<double>(active_groups) * warps_per_group;
  // Memory-latency hiding improves with resident warps, saturating at the
  // device's latency_hiding_warps; ALU-latency hiding saturates earlier.
  const double mem_hiding = std::min(
      1.0, std::pow(active_warps / dev.latency_hiding_warps, 0.8));
  const double alu_hiding = std::min(1.0, active_warps / 8.0);

  // Effective unroll factors (driver pragma reliability applied).
  std::vector<std::size_t> eff_unrolls(prof.loops.size(), 1);
  for (std::size_t i = 0; i < prof.loops.size(); ++i)
    eff_unrolls[i] = effective_unroll(dev, prof, prof.loops[i], i);

  // --- Compute time ---
  // Integer ops run at half rate on these GPUs; loop control adds ops that
  // unrolling removes; divergence serializes lanes.
  double ops_per_item =
      std::fma(2.0, prof.int_ops_per_item, prof.flops_per_item) +
      loop_overhead_ops(prof, eff_unrolls);
  const double divergence_penalty = 1.0 + prof.divergence * 1.0;
  const double ilp = nest_ilp(prof, eff_unrolls);
  const double peak_ops_per_ms = static_cast<double>(dev.compute_units) *
                                 dev.flops_per_cycle_per_cu * dev.clock_ghz *
                                 1e6;
  const double compute_ms = items * ops_per_item * divergence_penalty /
                            (peak_ops_per_ms * warp_exec_eff * ilp *
                             std::max(0.05, alu_hiding));

  // --- Memory time ---
  double mem_ms = 0.0;
  for (const MemoryStream& s : prof.streams) {
    double traffic =
        items * s.accesses_per_item * static_cast<double>(s.bytes_per_access);
    if (traffic <= 0.0) continue;
    double bw = dev.global_bw_gbps;
    const double line = static_cast<double>(dev.cache_line_bytes);
    const double bpa = static_cast<double>(s.bytes_per_access);
    switch (s.space) {
      case MemorySpace::kGlobal: {
        bw = dev.global_bw_gbps;
        switch (s.pattern) {
          case AccessPattern::kCoalesced:
            break;
          case AccessPattern::kStrided: {
            // Each warp touches stride-separated addresses: extra
            // transactions proportional to the stride, capped at one line
            // per access.
            const double stride = std::max(
                bpa, static_cast<double>(s.stride_bytes));
            traffic *= std::min(line / bpa, std::max(1.0, stride / bpa));
            break;
          }
          case AccessPattern::kTiled2D: {
            const double hit = dev.global_cached ? 0.85 : 0.25;
            traffic /= std::fma(std::max(1.0, s.reuse_factor) - 1.0, hit, 1.0);
            break;
          }
          case AccessPattern::kBroadcast:
            traffic /= static_cast<double>(dev.simd_width);
            bw = dev.l2_bw_gbps;
            break;
          case AccessPattern::kRandom:
            traffic *= std::min(line / bpa, 8.0);
            break;
        }
        break;
      }
      case MemorySpace::kImage: {
        bw = dev.texture_bw_gbps;
        // The texture cache exploits 2D locality; credit reuse.
        if (s.pattern == AccessPattern::kTiled2D ||
            s.pattern == AccessPattern::kCoalesced) {
          traffic /= std::fma(std::max(1.0, s.reuse_factor) - 1.0, 0.9, 1.0);
        }
        break;
      }
      case MemorySpace::kConstant: {
        bw = dev.constant_bw_gbps;
        if (s.pattern == AccessPattern::kBroadcast) {
          traffic /= static_cast<double>(dev.simd_width);
        } else if (s.pattern == AccessPattern::kRandom) {
          bw = dev.constant_bw_gbps / 4.0;  // divergent constant reads serialize
        }
        break;
      }
      case MemorySpace::kLocal: {
        bw = dev.local_bw_gbps;
        if (s.pattern == AccessPattern::kStrided && s.stride_bytes > 4) {
          const double conflict =
              std::min(8.0, static_cast<double>(s.stride_bytes) / 4.0);
          traffic *= conflict;  // bank conflicts serialize the accesses
        }
        break;
      }
    }
    const double effective_bw =
        bw * kGb * (s.space == MemorySpace::kLocal ? 1.0 : mem_hiding);
    mem_ms = std::fma(traffic / effective_bw, 1e3, mem_ms);
  }

  // --- Barriers ---
  const double total_warps = groups * warps_per_group;
  const double barrier_ms = prof.barriers_per_item * total_warps * 2e-5;

  // --- Wave (tail) quantization ---
  const double groups_per_wave =
      static_cast<double>(dev.compute_units) *
      static_cast<double>(active_groups);
  const double waves = std::ceil(groups / groups_per_wave);
  const double utilization =
      std::max(0.05, groups / (waves * groups_per_wave));

  const double busy = std::fma(0.3, std::min(compute_ms, mem_ms),
                               std::max(compute_ms, mem_ms)) /
                      utilization;
  return dev.launch_overhead_ms + busy + barrier_ms;
}

double TimingModel::cpu_time_ms(const DeviceInfo& dev,
                                const LaunchDescriptor& launch) const {
  const KernelProfile& prof = *launch.profile;
  const double items = static_cast<double>(launch.global.total());
  const std::size_t group_items = launch.local.total();
  const double groups = items / static_cast<double>(group_items);
  const double cores = static_cast<double>(dev.compute_units);

  // Groups are the scheduling unit; fewer groups than cores idles cores.
  const double used_cores = std::min(cores, groups);
  const double core_scale = cores / std::max(1.0, used_cores);

  // Implicit vectorization along the local x dimension.
  const double lx = static_cast<double>(launch.local.extent(0));
  const double vec_lanes = static_cast<double>(std::max<std::size_t>(1, dev.vector_width));
  const double vec_eff =
      std::max(1.0 / vec_lanes, std::min(1.0, lx / vec_lanes));

  std::vector<std::size_t> eff_unrolls(prof.loops.size(), 1);
  for (std::size_t i = 0; i < prof.loops.size(); ++i)
    eff_unrolls[i] = effective_unroll(dev, prof, prof.loops[i], i);

  // --- Compute ---
  double ops_per_item = prof.flops_per_item + prof.int_ops_per_item +
                        loop_overhead_ops(prof, eff_unrolls);
  // Software image sampling: address arithmetic + clamping per access.
  for (const MemoryStream& s : prof.streams) {
    if (s.space == MemorySpace::kImage)
      ops_per_item =
          std::fma(dev.software_image_ops, s.accesses_per_item, ops_per_item);
  }
  const double ilp = nest_ilp(prof, eff_unrolls);
  // masking
  const double divergence_penalty = std::fma(prof.divergence, 0.15, 1.0);
  const double peak_ops_per_ms =
      cores * dev.flops_per_cycle_per_cu * dev.clock_ghz * 1e6;
  const double compute_ms = items * ops_per_item * divergence_penalty *
                            core_scale /
                            (peak_ops_per_ms * vec_eff * ilp);

  // --- Memory: every logical space is main memory behind the cache
  // hierarchy. Reuse hits in cache; local copies run at cache speed.
  double mem_ms = 0.0;
  for (const MemoryStream& s : prof.streams) {
    double traffic =
        items * s.accesses_per_item * static_cast<double>(s.bytes_per_access);
    if (traffic <= 0.0) continue;
    double bw = dev.global_bw_gbps;
    const double line = static_cast<double>(dev.cache_line_bytes);
    const double bpa = static_cast<double>(s.bytes_per_access);
    const double reuse = std::max(1.0, s.reuse_factor);
    switch (s.space) {
      case MemorySpace::kLocal:
        bw = dev.l2_bw_gbps;  // tile fits L1/L2
        break;
      case MemorySpace::kConstant:
        traffic /= reuse;  // hot in L1
        bw = dev.l2_bw_gbps;
        break;
      case MemorySpace::kImage:
      case MemorySpace::kGlobal: {
        switch (s.pattern) {
          case AccessPattern::kCoalesced:
            break;  // streaming, prefetcher-friendly
          case AccessPattern::kStrided:
            traffic /= 0.7;  // prefetcher copes, partially
            break;
          case AccessPattern::kTiled2D:
            // tile resides in cache
            traffic /= std::fma(reuse - 1.0, 0.9, 1.0);
            break;
          case AccessPattern::kBroadcast:
            traffic /= reuse * 8.0;  // stays in L1
            break;
          case AccessPattern::kRandom:
            traffic *= std::min(line / bpa, 8.0);
            break;
        }
        break;
      }
    }
    mem_ms = std::fma(traffic * core_scale / (bw * kGb), 1e3, mem_ms);
  }

  // --- Overheads ---
  const double sched_ms =
      groups * dev.group_sched_overhead_us * 1e-3 / used_cores;
  // Barriers force the compiler to split the work-item loop (region
  // buffering); cost scales with items.
  const double barrier_ms = prof.barriers_per_item * items * 5e-6;

  const double busy = std::fma(0.3, std::min(compute_ms, mem_ms),
                               std::max(compute_ms, mem_ms));
  return dev.launch_overhead_ms + busy + sched_ms + barrier_ms;
}

double TimingModel::deterministic_kernel_time_ms(
    const DeviceInfo& device, const LaunchDescriptor& launch) const {
  if (launch.profile == nullptr)
    throw clsim::ClException(clsim::Status::kInvalidValue,
                             "launch without kernel profile");
  return device.type == clsim::DeviceType::kCpu ? cpu_time_ms(device, launch)
                                                : gpu_time_ms(device, launch);
}

double TimingModel::kernel_time_ms(const DeviceInfo& device,
                                   const LaunchDescriptor& launch) const {
  double t = deterministic_kernel_time_ms(device, launch);
  const std::uint64_t config_h =
      mix(mix(hash_string(device.name), launch.profile->config_fingerprint),
          options_.seed);
  if (options_.structural_noise && device.structural_noise_sigma > 0.0) {
    t *= std::exp(device.structural_noise_sigma * hash_normal(config_h));
  }
  if (options_.measurement_noise && device.measurement_noise_sigma > 0.0) {
    const std::uint64_t call =
        call_counter_.fetch_add(1, std::memory_order_relaxed);
    t *= std::exp(device.measurement_noise_sigma *
                  hash_normal(mix(config_h, call + 1)));
  }
  return t;
}

double TimingModel::compile_time_ms(const DeviceInfo& device,
                                    const clsim::KernelProfile& profile) const {
  return device.base_compile_ms +
         device.compile_ms_per_kstmt * profile.compile_complexity / 1000.0;
}

}  // namespace pt::archsim
