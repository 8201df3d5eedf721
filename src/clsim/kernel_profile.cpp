#include "clsim/kernel_profile.hpp"

namespace pt::clsim {

const char* to_string(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kCoalesced: return "coalesced";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kBroadcast: return "broadcast";
    case AccessPattern::kTiled2D: return "tiled2d";
    case AccessPattern::kRandom: return "random";
  }
  return "unknown";
}

bool KernelProfile::uses_space(MemorySpace space) const noexcept {
  for (const auto& s : streams)
    if (s.space == space) return true;
  return false;
}

std::uint64_t fnv1a(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fingerprint_values(const std::vector<int>& values,
                                 std::uint64_t seed) noexcept {
  std::uint64_t hash = seed;
  for (int v : values) {
    hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    hash *= 0x100000001b3ULL;
    hash ^= hash >> 29;
  }
  return hash;
}

}  // namespace pt::clsim
