#pragma once

// Memory objects of the simulated runtime. They are functionally backed by
// host memory (the simulator executes kernels on the host), while *timing*
// of traffic to them is the oracle's business. Images provide the clamped
// integer-coordinate sampling the benchmarks rely on.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace pt::clsim {

/// Untyped linear device buffer (cl_mem analogue). Handle semantics: copies
/// share storage, matching OpenCL's reference-counted cl_mem.
class Buffer {
 public:
  explicit Buffer(std::size_t bytes)
      : storage_(std::make_shared<std::vector<unsigned char>>(bytes, 0)) {}

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return storage_->size();
  }

  /// Typed view; the byte size must be an exact multiple of sizeof(T) and
  /// the storage must satisfy alignof(T) — reinterpreting under-aligned
  /// storage as an over-aligned T would be undefined behaviour.
  /// Constness is shallow (handle semantics, like cl_mem): pass `const T`
  /// for a read-only view.
  template <typename T>
  [[nodiscard]] std::span<T> as() const {
    if (storage_->size() % sizeof(T) != 0)
      throw std::invalid_argument("Buffer::as: size not a multiple of T");
    if (reinterpret_cast<std::uintptr_t>(storage_->data()) % alignof(T) != 0)
      throw std::invalid_argument(
          "Buffer::as: storage is under-aligned for T");
    return {reinterpret_cast<T*>(storage_->data()),
            storage_->size() / sizeof(T)};
  }

  /// Storage identity (stable across handle copies) — the clcheck resource
  /// key, so every view of one buffer shares one shadow.
  [[nodiscard]] const void* storage_key() const noexcept {
    return storage_.get();
  }

 private:
  std::shared_ptr<std::vector<unsigned char>> storage_;
};

/// 2D image of float texels with `channels` components. Sampling clamps to
/// the edge (CLK_ADDRESS_CLAMP_TO_EDGE) — what the benchmarks use.
class Image2D {
 public:
  Image2D(std::size_t width, std::size_t height, std::size_t channels = 1);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return data_->size() * sizeof(float);
  }

  /// Texel reference (shallow constness — handle semantics like cl_mem).
  [[nodiscard]] float& at(std::size_t x, std::size_t y,
                          std::size_t c = 0) const;

  /// Clamped integer-coordinate read (out-of-range coordinates clamp).
  [[nodiscard]] float sample(long x, long y, std::size_t c = 0) const noexcept;

  [[nodiscard]] std::span<float> data() const noexcept { return *data_; }

 private:
  std::size_t width_;
  std::size_t height_;
  std::size_t channels_;
  std::shared_ptr<std::vector<float>> data_;
};

/// 3D image (volume) of single-float texels with nearest sampling and edge
/// clamping, as the raycaster needs.
class Image3D {
 public:
  Image3D(std::size_t width, std::size_t height, std::size_t depth);

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return data_->size() * sizeof(float);
  }

  /// Voxel reference (shallow constness — handle semantics like cl_mem).
  [[nodiscard]] float& at(std::size_t x, std::size_t y, std::size_t z) const;

  /// Clamped integer-coordinate read (out-of-range coordinates clamp).
  [[nodiscard]] float sample(long x, long y, long z) const noexcept;

  [[nodiscard]] std::span<float> data() const noexcept { return *data_; }

 private:
  std::size_t width_;
  std::size_t height_;
  std::size_t depth_;
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace pt::clsim
