#pragma once

// KernelProfile: the static, per-work-item description of a compiled kernel
// that the architectural timing model consumes. This is the information a
// real OpenCL compiler has after specializing a kernel for one tuning
// configuration (macros substituted, loops unrolled, memory spaces chosen).
//
// The benchmark kernel factories emit one profile per configuration; the
// archsim TimingModel turns (profile, launch geometry, device) into time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clsim/types.hpp"

namespace pt::clsim {

/// Spatial pattern of a memory stream across neighbouring work-items.
enum class AccessPattern {
  kCoalesced,   // consecutive work-items touch consecutive addresses
  kStrided,     // constant stride > element size between work-items
  kBroadcast,   // all work-items of a group read the same address
  kTiled2D,     // 2D-local footprint (stencil halo, texture-friendly)
  kRandom,      // data-dependent, no locality
};

[[nodiscard]] const char* to_string(AccessPattern pattern) noexcept;

/// One memory stream of the kernel: `accesses_per_item` touches of
/// `bytes_per_access` each, in the given logical space and pattern.
struct MemoryStream {
  MemorySpace space = MemorySpace::kGlobal;
  AccessPattern pattern = AccessPattern::kCoalesced;
  double accesses_per_item = 0.0;   // average per work-item (loops included)
  std::size_t bytes_per_access = 4;
  /// For kStrided: stride between consecutive work-items' addresses, bytes.
  std::size_t stride_bytes = 0;
  /// Average number of distinct work-items that touch each address (> 1
  /// means inter-item reuse that caches can exploit).
  double reuse_factor = 1.0;
  bool is_write = false;
};

/// Static loop structure relevant to unrolling: the timing model charges
/// loop-control overhead per iteration and credits ILP from unrolling.
struct LoopInfo {
  double trip_count = 1.0;     // average dynamic trips per work-item
  std::size_t unroll_factor = 1;
  /// True when unrolling is requested via an OpenCL driver pragma rather
  /// than performed manually in the source; some drivers apply pragmas
  /// unreliably (the paper blames this for AMD's accuracy gap, section 7).
  bool via_driver_pragma = false;
};

/// Full per-configuration profile of a compiled kernel.
struct KernelProfile {
  std::string kernel_name;

  // Arithmetic per work-item (after unrolling/specialization).
  double flops_per_item = 0.0;
  double int_ops_per_item = 0.0;

  // Memory behaviour.
  std::vector<MemoryStream> streams;

  // Loop nest (innermost loops that unrolling affects).
  std::vector<LoopInfo> loops;

  // Resources.
  std::size_t local_mem_bytes_per_group = 0;  // static + dynamic local usage
  std::size_t constant_mem_bytes = 0;         // __constant allocations
  std::size_t registers_per_item = 16;
  double barriers_per_item = 0.0;

  /// Fraction of instructions under divergent control flow (0 = uniform).
  double divergence = 0.0;

  /// Opaque fingerprint of the tuning configuration that produced this
  /// profile; drives the deterministic "unmodeled effects" noise so a given
  /// (device, configuration) pair always times the same.
  std::uint64_t config_fingerprint = 0;

  /// Rough source complexity in "statements" — drives compile-time modeling.
  double compile_complexity = 100.0;

  [[nodiscard]] bool uses_space(MemorySpace space) const noexcept;
};

/// 64-bit FNV-1a over a byte string (used to build config fingerprints).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size) noexcept;

/// Convenience: fingerprint from a list of integer parameter values.
[[nodiscard]] std::uint64_t fingerprint_values(
    const std::vector<int>& values, std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

}  // namespace pt::clsim
