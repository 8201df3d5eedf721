#pragma once

// Basic value types of the simulated OpenCL runtime.

#include <array>
#include <cstddef>
#include <string>

namespace pt::clsim {

/// Up to three dimensions of work-item counts. A dimension of 0 is "unused";
/// used dimensions must be contiguous starting at x.
class NDRange {
 public:
  constexpr NDRange() = default;
  constexpr explicit NDRange(std::size_t x) : sizes_{x, 0, 0} {}
  constexpr NDRange(std::size_t x, std::size_t y) : sizes_{x, y, 0} {}
  constexpr NDRange(std::size_t x, std::size_t y, std::size_t z)
      : sizes_{x, y, z} {}

  [[nodiscard]] constexpr std::size_t dimensions() const noexcept {
    if (sizes_[2] != 0) return 3;
    if (sizes_[1] != 0) return 2;
    if (sizes_[0] != 0) return 1;
    return 0;
  }

  [[nodiscard]] constexpr std::size_t operator[](std::size_t d) const noexcept {
    return sizes_[d];
  }

  /// Size of dimension d treating unused dimensions as 1 (for products).
  [[nodiscard]] constexpr std::size_t extent(std::size_t d) const noexcept {
    return sizes_[d] == 0 ? 1 : sizes_[d];
  }

  [[nodiscard]] constexpr std::size_t total() const noexcept {
    return extent(0) * extent(1) * extent(2);
  }

  [[nodiscard]] constexpr bool operator==(const NDRange&) const noexcept =
      default;

 private:
  std::array<std::size_t, 3> sizes_{0, 0, 0};
};

[[nodiscard]] std::string to_string(const NDRange& range);

enum class DeviceType { kCpu, kGpu, kAccelerator };

[[nodiscard]] const char* to_string(DeviceType type) noexcept;

/// Logical OpenCL memory spaces (section 4.1 of the paper).
enum class MemorySpace { kGlobal, kLocal, kConstant, kImage };

[[nodiscard]] const char* to_string(MemorySpace space) noexcept;

}  // namespace pt::clsim
