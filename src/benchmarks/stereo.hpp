#pragma once

// Stereo benchmark (paper Table 1): dense disparity estimation between two
// 1024x1024 rectified images by window-based SAD block matching over a
// disparity range, producing a disparity map (distance to objects).
//
// Tuning parameters (Table 2): work-group shape, outputs per thread, the
// memory space of each input image (image memory and/or local tiling,
// independently for left and right), and three driver-pragma unroll factors:
// the disparity loop {1,2,4,8} and the window difference loops in x and y
// {1,2,4} each. Space size: 8^4 * 2^4 * 4*3*3 = 2,359,296 — the largest of
// the three benchmarks, and (via the right image's disparity-extended local
// tile) the one with the most invalid configurations on GPUs.
//
// The inputs, their images and the output are built on their first
// functional use (OnDemand): a kernel body, verify(), reference() or one of
// the input views. Measuring a configuration on a timing-only queue builds
// none of them. The inputs are filled row by row, on the thread that asks
// first. Each left row costs 3 libm calls per pixel, for left_value; the
// right row is read off it, because right(x, y) = left_value(x + d, y) with
// the shift clamped at the right edge; and true_disparity's sin(0.011 x) and
// cos(0.017 y) are computed once per column and once per row. Only whole libm
// results are reused, so every pixel equals the per-pixel
// left_value/true_disparity bit for bit (tests/benchmarks/test_inputs.cpp).

#include <memory>
#include <span>

#include "benchmarks/benchmark.hpp"

namespace pt::benchkit {

class StereoBenchmark final : public TunableBenchmark {
 public:
  struct Geometry {
    std::size_t width = 1024;
    std::size_t height = 1024;
    int max_disparity = 64;
    int window_radius = 2;  // 5x5 SAD window
  };

  StereoBenchmark() : StereoBenchmark(Geometry{}) {}
  explicit StereoBenchmark(const Geometry& geometry);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] const tuner::ParamSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const Geometry& geometry() const noexcept { return geometry_; }

  [[nodiscard]] clsim::BuildOptions build_options(
      const tuner::Configuration& config) const override;

  [[nodiscard]] LaunchPlan prepare(
      const clsim::Device& device,
      const tuner::Configuration& config) const override;

  [[nodiscard]] double verify(const clsim::Device& device,
                              const tuner::Configuration& config) const override;
  [[nodiscard]] CheckedVerification verify_checked(
      const clsim::Device& device,
      const tuner::Configuration& config) const override;

  /// Complete clstat constraint set: geometry limits, the two optional
  /// local tiles' combined budget, register pressure, and image support.
  [[nodiscard]] clsim::analyze::KernelConstraints constraints() const override;

  /// Scalar reference disparity map.
  [[nodiscard]] std::vector<float> reference() const;

  /// Deterministic left-image intensity and the planted disparity field.
  [[nodiscard]] static float left_value(std::size_t x, std::size_t y) noexcept;
  [[nodiscard]] static int true_disparity(std::size_t x, std::size_t y,
                                          int max_disparity) noexcept;

  /// Read-only views of the generated inputs (the first call builds them),
  /// row-major width x height: the buffers and the images hold the same
  /// pixels.
  [[nodiscard]] std::span<const float> left() const;
  [[nodiscard]] std::span<const float> right() const;
  [[nodiscard]] std::span<const float> left_image() const;
  [[nodiscard]] std::span<const float> right_image() const;

  /// The data objects only functional runs read (stereo.cpp).
  struct Inputs;

 private:
  void build_space();
  void build_program();
  double run_functional(const clsim::Device& device,
                        const tuner::Configuration& config,
                        clsim::CheckReport* report) const;

  std::string name_ = "stereo";
  Geometry geometry_;
  tuner::ParamSpace space_;
  // Shared with the kernel factory, whose bodies read it.
  std::shared_ptr<const OnDemand<Inputs>> inputs_;
  clsim::Program program_;
};

}  // namespace pt::benchkit
