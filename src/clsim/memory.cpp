#include "clsim/memory.hpp"

#include <algorithm>

namespace pt::clsim {

Image2D::Image2D(std::size_t width, std::size_t height, std::size_t channels)
    : width_(width),
      height_(height),
      channels_(channels),
      data_(std::make_shared<std::vector<float>>(width * height * channels,
                                                 0.0f)) {
  if (width == 0 || height == 0 || channels == 0)
    throw std::invalid_argument("Image2D: zero dimension");
}

float& Image2D::at(std::size_t x, std::size_t y, std::size_t c) const {
  if (x >= width_ || y >= height_ || c >= channels_)
    throw std::out_of_range("Image2D::at");
  return (*data_)[(y * width_ + x) * channels_ + c];
}

float Image2D::sample(long x, long y, std::size_t c) const noexcept {
  const long cx = std::clamp<long>(x, 0, static_cast<long>(width_) - 1);
  const long cy = std::clamp<long>(y, 0, static_cast<long>(height_) - 1);
  return (*data_)[(static_cast<std::size_t>(cy) * width_ +
                   static_cast<std::size_t>(cx)) *
                      channels_ +
                  c];
}

Image3D::Image3D(std::size_t width, std::size_t height, std::size_t depth)
    : width_(width),
      height_(height),
      depth_(depth),
      data_(std::make_shared<std::vector<float>>(width * height * depth,
                                                 0.0f)) {
  if (width == 0 || height == 0 || depth == 0)
    throw std::invalid_argument("Image3D: zero dimension");
}

float& Image3D::at(std::size_t x, std::size_t y, std::size_t z) const {
  if (x >= width_ || y >= height_ || z >= depth_)
    throw std::out_of_range("Image3D::at");
  return (*data_)[(z * height_ + y) * width_ + x];
}

float Image3D::sample(long x, long y, long z) const noexcept {
  const long cx = std::clamp<long>(x, 0, static_cast<long>(width_) - 1);
  const long cy = std::clamp<long>(y, 0, static_cast<long>(height_) - 1);
  const long cz = std::clamp<long>(z, 0, static_cast<long>(depth_) - 1);
  return (*data_)[(static_cast<std::size_t>(cz) * height_ +
                   static_cast<std::size_t>(cy)) *
                      width_ +
                  static_cast<std::size_t>(cx)];
}

}  // namespace pt::clsim
